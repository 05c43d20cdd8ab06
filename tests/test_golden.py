"""Golden CSV digests: every algorithm under both protocols on the toy set.

Each case runs either the online protocol (``run_experiment``: a 2-value
grid selected on the selection permutations, then 2 evaluation
permutations) or the generalization protocol (``run_cv`` with 3 folds), and
hashes the written CSV with the elapsed-time columns removed.  A change to
the harness that is meant to preserve behaviour must leave every digest as
it is.  To re-record after an intended change of results, run
``python tests/test_golden.py`` and paste its output over ``DIGESTS``.
"""

import hashlib
from pathlib import Path

import pytest

from costsense.data import load_dataset
from costsense.harness import ALGO_IDS, ExperimentConfig, run_cv, run_experiment

TOY = Path(__file__).resolve().parent.parent / "datasets" / "toy_imbalanced.libsvm"

ONLINE = dict(eta_grid=(0.1, 1.0), permutations=2, seed=4)
CV = dict(eta_grid=(0.1, 1.0), folds=3, seed=4)

CASES = {f"{algo}/online": dict(algo=algo, **ONLINE) for algo in ALGO_IDS}
CASES.update({f"{algo}/cv": dict(algo=algo, **CV) for algo in ALGO_IDS})
for proto, kw in (("online", ONLINE), ("cv", CV)):
    CASES[f"acog2-laplace/{proto}"] = dict(algo="acog2", rho_mode="laplace", **kw)
    CASES[f"cog1-fixed/{proto}"] = dict(algo="cog1", rho_mode="fixed:2.5", **kw)
    CASES[f"ssacog2-cost/{proto}"] = dict(algo="ssacog2", metric="cost", **kw)
    for algo in ("acog2", "acog2-diag"):
        CASES[f"{algo}-old/{proto}"] = dict(algo=algo, update_rule="old", **kw)
    for algo in ("sacog2", "ssacog2"):
        CASES[f"{algo}-lazy3/{proto}"] = dict(algo=algo, sketch_lazy=3, **kw)
        CASES[f"{algo}-lossonly/{proto}"] = dict(algo=algo, sketch_on_loss_only=True, **kw)

DIGESTS = {
    "acog1-diag/cv": "148a73682ad3803926cebb6aef2379178ac621b485c7d8994aef0790f1b12f72",
    "acog1-diag/online": "69e68ff755f63a999b4289ad5445364eaccb8b2200fb629760c0f45784ef9a4c",
    "acog1/cv": "423775bc5da5c61214ce14476249222d0cd7e2a6215eb66c0c781de816b6d3f2",
    "acog1/online": "e4bbafe4a95ee15914189f6c7e7d3276e9a8414817a92c3733eebc0a881e1b46",
    "acog2-diag-old/cv": "362b0690e64725543956677ec325ade8a3841fa4fa6dde36e17de61ba2f3ec01",
    "acog2-diag-old/online": "8b8f989e5ee2f945af21533f5425fe1b5d3199f9d002e3d0e8a012119aba54ca",
    "acog2-diag/cv": "a68f1ea04d1d24cc09db5f9dab97f559f560920d41f2e705bd154ce08cdb81e1",
    "acog2-diag/online": "9f2541f8ac5e168805ab26ce7abd8db521afe7392df3fb9ae45aabbb916abbf5",
    "acog2-laplace/cv": "715dcb1a59af2b2f02bba7d31bddf3ef312ea64576fc6a1ff24fcdce9d073b49",
    "acog2-laplace/online": "8e686b7b1bdf6ebc9c07a60e28f9ff14c620e28ae06895a5e8cab1f50486d8c8",
    "acog2-old/cv": "46753be5204ac596e3db8addada1b048232692d92241789707e735cf8a86bea6",
    "acog2-old/online": "48c5f9d309c21baf470886a4285e9c09e9905800679525674cec7c24256f9e75",
    "acog2/cv": "5f9eb85ee0bd3225108e2a6cfc7ef5e716e4e1aee23ec74196790094cb62dd56",
    "acog2/online": "016aee75a0b4813369d3444360c0a0ef52f96fe0622f4b5df7c479f1c2287779",
    "cog1-fixed/cv": "f5b4acace6daeb76b04cb816080bed48a5c4a615067b957a53d200d59c54cb61",
    "cog1-fixed/online": "ee7da7ce5a565e16b354d1b35cf0e5b65fd1ce5d942b54e134dc0d63f142eaa3",
    "cog1/cv": "7af7b0bfcb36f31a3789e724725b4d31d6e6c96896962bb7c2c7e6e08361f58d",
    "cog1/online": "8e0f213f7aee42d8a1c51125faa4c9a66f3724bcc2ccc3acf7aa90da2b0057ab",
    "cog2/cv": "67621ffbfdcda7c1b52c940e4b1b337e391d02995c5e1368d9a95d3136a33129",
    "cog2/online": "5ed49f1ae847aacf2845a578f5fa3080bd03abf73617e9de075fc80628317f90",
    "pa1/cv": "6e7c50345e7ae90de9cce1b508d7919cc26352a933fcbb522cb4fc4faf2fa4cc",
    "pa1/online": "71625ab4ed519bd206fbe32eb3b143a3d5e124ac55c23654dea2bb86d4a76f34",
    "perceptron/cv": "0ee31391e1de996d864694af6698dde6fda8a0efccbfab74a79f90679945b6f4",
    "perceptron/online": "30eef18170e7388ab01f6e05b0b9ba003ba81755cc32ae8a81d6c135eb8092f0",
    "sacog1/cv": "a7fc3256dded796589cc7fd5bc89a9a4910d9dc5a8b7cc1306c497fb1c89ae7e",
    "sacog1/online": "ba39912d13a38738a4994e186d32d6683f711efeddbd87fd7a7b5ff5a7410b30",
    "sacog2-lazy3/cv": "c9a69f7e3c22230d3159c130e00b825a21049a6b9ad221b88cf88eeb6eceaf00",
    "sacog2-lazy3/online": "d58c842f18f7fe485a1b1d488b5149ffedacf211f0c6896053056e1074315e62",
    "sacog2-lossonly/cv": "c1af3e10b2825329a6441e86c41e632f964bf4a139f569f1c680795d4bef9f33",
    "sacog2-lossonly/online": "2d82833f711f82a33ec18f79919993e869aa19f0914be5f366be8b583749c751",
    "sacog2/cv": "131afcbc4c7297cb26c6d53fb16c60e77c9c63b6fd96f7c1f60e9b9c65a52b4f",
    "sacog2/online": "812ed9b389690621eb5e70d835d46acf39b8223c99d450ac9c085df94bf5afd3",
    "ssacog1/cv": "a7fc3256dded796589cc7fd5bc89a9a4910d9dc5a8b7cc1306c497fb1c89ae7e",
    "ssacog1/online": "ba39912d13a38738a4994e186d32d6683f711efeddbd87fd7a7b5ff5a7410b30",
    "ssacog2-cost/cv": "e38d88289d085569d285e364c044449bacf0877701cfcb76cb678a0a4ad719b3",
    "ssacog2-cost/online": "78408c89368647aa5cc1534db6424c27880f85fcbda03668fc7f426a30feafda",
    "ssacog2-lazy3/cv": "c9a69f7e3c22230d3159c130e00b825a21049a6b9ad221b88cf88eeb6eceaf00",
    "ssacog2-lazy3/online": "d58c842f18f7fe485a1b1d488b5149ffedacf211f0c6896053056e1074315e62",
    "ssacog2-lossonly/cv": "c1af3e10b2825329a6441e86c41e632f964bf4a139f569f1c680795d4bef9f33",
    "ssacog2-lossonly/online": "2d82833f711f82a33ec18f79919993e869aa19f0914be5f366be8b583749c751",
    "ssacog2/cv": "131afcbc4c7297cb26c6d53fb16c60e77c9c63b6fd96f7c1f60e9b9c65a52b4f",
    "ssacog2/online": "812ed9b389690621eb5e70d835d46acf39b8223c99d450ac9c085df94bf5afd3",
}


def csv_digest(name: str, out: Path, dataset) -> str:
    cfg = ExperimentConfig(out=str(out), **CASES[name])
    (run_cv if cfg.folds else run_experiment)(cfg, dataset)
    rows = [line.split(",") for line in out.read_text(encoding="utf-8").splitlines()]
    keep = [i for i, col in enumerate(rows[0]) if not col.startswith("elapsed_ms")]
    text = "\n".join(",".join(row[i] for i in keep) for row in rows)
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.fixture(scope="module")
def toy():
    return load_dataset(TOY)


@pytest.mark.parametrize("name", sorted(CASES))
def test_csv_digest_unchanged(name, toy, tmp_path):
    assert csv_digest(name, tmp_path / "out.csv", toy) == DIGESTS[name]


if __name__ == "__main__":
    import tempfile

    ds = load_dataset(TOY)
    with tempfile.TemporaryDirectory() as tmp:
        for name in sorted(CASES):
            print(f'    "{name}": "{csv_digest(name, Path(tmp) / "out.csv", ds)}",')
