"""Golden SHA-256 digests of fixed-seed result files.

The files are the desk-scale experiment reports, the 15 files of the two
CLI chains that CI runs, and the model and evaluation files of CI's
mixed-window chain, which fix its threshold and the size, recall and
inclusion of every set. A change that alters any of their bytes is either a
deliberate, documented change of the results contract, which updates the
digests in the same change, or a defect.

Ranking sums run in float64 in sequence, so the digests are not keyed by
platform. The largest adjacency eigenvalue, which sets every r0-derived
infection rate, still goes through BLAS: that is the one platform dependence
left. The recorded digests come from x86-64 Linux with Python 3.11 and numpy
2.4.6.

The CLI digest file is in `sha256sum` format with the paths CI uses, so CI
checks the console-script chain against it with `sha256sum -c`.
"""

import hashlib
import json
from pathlib import Path

from sourceset.cli import main
from sourceset.diffusion import GenerativeConfig
from sourceset.experiment import ExperimentConfig, run_experiment, write_reports

GOLDEN = Path(__file__).parent / "golden"

# the desk generative configuration of the acceptance suite
DESK_GEN = GenerativeConfig(source_count=(1, 10), r0=(1.0, 10.0),
                            sigma_rec=(0.1, 0.4), n_snapshots=16)
# (estimator, overrides of the desk preset); mc:2 runs one small trial, so
# that a seeded estimator is covered at well under a second
DESK_RUNS = (("heuristic", {}), ("oracle:1.0", {}),
             ("mc:2", {"n_trials": 1, "n_cal": 100, "n_test": 50}))


def recorded(name: str) -> dict[str, str]:
    """{path: digest} from a sha256sum-format file."""
    table = {}
    for line in (GOLDEN / name).read_text().splitlines():
        digest, name = line.split("  ", 1)
        table[name] = digest
    return table


def computed(root: Path) -> dict[str, str]:
    """{"./relative/path": digest} of every file under root, as sha256sum
    names them when run in root."""
    return {f"./{p.relative_to(root).as_posix()}":
            hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(root.rglob("*")) if p.is_file()}


def write_desk_reports(root: Path) -> None:
    for estimator, overrides in DESK_RUNS:
        cfg = ExperimentConfig.desk_scale("ba:200,3", DESK_GEN, estimator=estimator,
                                          **{"n_trials": 5, "seed": 20240915,
                                             **overrides})
        label = estimator.replace(":", "-")
        write_reports(run_experiment(cfg), root / f"{label}_trials.csv",
                      root / f"{label}_summary.csv")


def write_cli_chains(root: Path, monkeypatch) -> None:
    """The two chains of CI's byte-determinism step, with the same relative
    paths, so the files (and the paths their headers record) are the same."""

    def chain(graph: str, sigma_inf: str, score: str) -> None:
        sim = ["simulate", "--graph", graph, "--sigma-inf", sigma_inf,
               "--sigma-rec", "0.1", "--sources", "1,3"]
        for argv in ([*sim, "--samples", "200", "--seed", "7", "--out", "cal.jsonl"],
                     [*sim, "--samples", "50", "--seed", "8", "--out", "test.jsonl"],
                     ["calibrate", "--data", "cal.jsonl", "--score", score,
                      "--alpha", "0.1", "--beta", "0.3", "--estimator", "heuristic",
                      "--out", "model.json"],
                     ["predict", "--model", "model.json", "--data", "test.jsonl",
                      "--out", "sets.jsonl"],
                     ["evaluate", "--sets", "sets.jsonl", "--data", "test.jsonl",
                      "--out", "eval.csv"]):
            assert main(argv) == 0, argv

    monkeypatch.chdir(root)
    chain("complete:20", "0.25", "rec")
    # seeded estimators on the same data: one substream per sample index
    for argv in (["calibrate", "--data", "cal.jsonl", "--score", "pre",
                  "--alpha", "0.1", "--beta", "0.3", "--estimator", "oracle:0.5",
                  "--seed", "5", "--out", "oracle_model.json"],
                 ["predict", "--model", "oracle_model.json", "--data", "test.jsonl",
                  "--out", "oracle_sets.jsonl"],
                 # Monte Carlo on the same data
                 ["calibrate", "--data", "cal.jsonl", "--score", "min",
                  "--alpha", "0.1", "--beta", "0.3", "--estimator", "mc:2",
                  "--seed", "5", "--out", "mc_model.json"],
                 ["predict", "--model", "mc_model.json", "--data", "test.jsonl",
                  "--out", "mc_sets.jsonl"]):
        assert main(argv) == 0, argv
    (root / "file").mkdir()
    monkeypatch.chdir(root / "file")
    # a ring plus chords, an isolated node 30 from the directive, a reversed
    # duplicate and a self-loop line
    lines = ["# nodes: 31"]
    for i in range(30):
        lines += [f"{i} {(i + 1) % 30}", f"{i} {(i + 7) % 30}"]
    lines += ["1 0", "4 4"]
    Path("graph.edges").write_text("".join(line + "\n" for line in lines))
    chain("file:graph.edges", "0.3", "min")


def write_mixed_chain(root: Path, monkeypatch) -> None:
    """The mixed-window chain of CI's byte-determinism step: two window
    lengths in one dataset, so calibrate and predict split their blocks
    where the length changes."""
    monkeypatch.chdir(root)
    sim = ["simulate", "--graph", "complete:20", "--sigma-inf", "0.25",
           "--sigma-rec", "0.1", "--sources", "1,3"]
    for argv in ([*sim, "--samples", "120", "--snapshots", "16", "--seed", "11",
                  "--out", "long.jsonl"],
                 [*sim, "--samples", "80", "--snapshots", "6", "--seed", "12",
                  "--out", "short.jsonl"]):
        assert main(argv) == 0, argv
    lines = Path("long.jsonl").read_text().splitlines()
    offset = len(lines) - 1
    for line in Path("short.jsonl").read_text().splitlines()[1:]:
        rec = json.loads(line)
        lines.append(json.dumps({**rec, "index": rec["index"] + offset}))
    Path("mixed.jsonl").write_text("\n".join(lines) + "\n")
    for argv in (["calibrate", "--data", "mixed.jsonl", "--score", "pre",
                  "--alpha", "0.1", "--beta", "0.3", "--estimator", "heuristic",
                  "--out", "model.json"],
                 ["predict", "--model", "model.json", "--data", "mixed.jsonl",
                  "--out", "sets.jsonl"],
                 ["evaluate", "--sets", "sets.jsonl", "--data", "mixed.jsonl",
                  "--out", "eval.csv"]):
        assert main(argv) == 0, argv


class TestGoldenDigests:
    def test_desk_reports(self, tmp_path):
        expected = recorded("desk_reports.sha256")
        write_desk_reports(tmp_path)
        assert computed(tmp_path) == expected

    def test_cli_chains(self, tmp_path, monkeypatch):
        expected = recorded("cli_chain.sha256")
        write_cli_chains(tmp_path, monkeypatch)
        assert len(expected) == 15
        assert computed(tmp_path) == expected

    def test_mixed_window_chain(self, tmp_path, monkeypatch):
        expected = recorded("cli_mixed.sha256")
        write_mixed_chain(tmp_path, monkeypatch)
        assert {name: digest for name, digest in computed(tmp_path).items()
                if name in expected} == expected
