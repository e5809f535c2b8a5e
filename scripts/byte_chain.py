"""Run the CLI byte-identity chain and keep every artifact and stdout.

    python3 scripts/byte_chain.py OUT_DIR

Runs this checkout's ``dialroute`` (its ``src``, nothing installed) with
``OPENBLAS_NUM_THREADS=1``, from inside OUT_DIR, which must be new or empty:

- ``simulate --seed 0`` and ``--seed 3`` into ``sim0/`` and ``sim3/``;
- ``simulate --seed 0`` with 1,000 hold-out dialogues, ``pool_size`` 5000
  and 2 epochs into ``sim_large/``: its pools hold ~4,300 entries, the only
  ones in the chain near the size ``route-large-pool`` routes over (the
  other steps' pools hold at most ~600 entries);
- on seed 3's corpora and predictions, once per supervision kind (``none``,
  ``task``, ``expert``, ``task+expert``) into ``cli/<kind>/``: ``validate``,
  ``embed``, ``mine-and-train``, ``build-pools``, ``route`` with each router
  (retrieval, oracle, cascade, classifier; one ``run_<router>.jsonl`` each)
  and ``report`` (``report.json`` of the retrieval run, ``series.json`` of
  all four);
- the store-embedder chain in ``store/``: ``embed`` the test and hold-out
  corpora with the hash embedder, join the two files into ``store.jsonl``,
  then ``embed``, ``mine-and-train``, ``build-pools``, ``route`` and
  ``report`` with ``{"kind": "store"}``;
- the error cases in ``errors/``: a 128-dim ``embed``, ``mine-and-train``
  and ``build-pools`` into ``errors/dim128/``, then one command per damaged
  input (one to four per loader, written to ``errors/inputs/`` from the
  artifacts above, among them a vector or matrix entry given as the string
  ``"1.5"`` or as ``true`` in the store, a pool and the adapter, and a turn
  predicted for one expert in two files) and per pair of artifacts that do
  not fit each other in dim, 25 cases in all. Each case's exit code and
  standard error go to ``errors/<case>.txt``.

Each command's standard output goes to ``stdout/<nn>_<step>.txt``, and every
path in a config or output is relative to OUT_DIR, so two checkouts' trees
compare with ``diff -r``. The script stops with exit status 1 at the first
command of the chain that fails, and once every error case has run, exits 1
if any of them did not exit 1.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SUPERVISIONS = ("none", "task", "expert", "task+expert")
ROUTERS = ("retrieval", "oracle", "cascade", "classifier")
SIM3 = {
    "corpus": "sim3/corpus_test.jsonl",
    "holdout": "sim3/corpus_holdout.jsonl",
    "predictions": {"slm": "sim3/predictions_slm.jsonl", "llm": "sim3/predictions_llm.jsonl"},
    "training_domains": ["hotel"],
    "seed": 3,
}

# Every error case reads seed 3's inputs and the task+expert chain's
# artifacts, damaged or not, and writes to errors/out: a case that exits 0
# changes no artifact another step reads.
CHAIN = "cli/task_expert"
SOURCES = {
    "embeddings_path": f"{CHAIN}/embeddings.jsonl",
    "adapter_path": f"{CHAIN}/adapter.json",
    "run_path": f"{CHAIN}/run_retrieval.jsonl",
}
ERRORS = {**SIM3, "out_dir": "errors/out", **SOURCES, "pools_dir": CHAIN}
WRITES = {
    "mine-and-train": {"adapter_path": "errors/out/adapter.json"},
    "build-pools": {"pools_dir": "errors/out"},
    "route": {"run_path": "errors/out/run.jsonl"},
}

# Pools near route-large-pool's size; the other steps' hold at most ~600 entries.
LARGE = {"holdout_dialogues": 1000, "pool_size": 5000, "epochs": 2}


class Chain:
    def __init__(self, out: Path) -> None:
        self.out = out
        self.steps = 0
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            self.env[var] = "1"

    def config(self, name: str, record: dict) -> str:
        path = Path("configs") / f"{name}.json"
        (self.out / path).write_text(json.dumps(record, indent=1) + "\n")
        return str(path)

    def run(self, label: str, *args: str) -> None:
        self.steps += 1
        stdout = self.out / "stdout" / f"{self.steps:02d}_{label}.txt"
        with open(stdout, "w", encoding="utf-8") as handle:
            done = subprocess.run(
                [sys.executable, "-m", "dialroute", *args],
                cwd=self.out,
                env=self.env,
                stdout=handle,
                check=False,
            )
        if done.returncode != 0:
            raise SystemExit(
                f"error: step {self.steps} ({' '.join(args)}) exited {done.returncode}"
            )

    def case(self, label: str, command: str, record: dict) -> bool:
        """Run one error case; keep its exit code and stderr, and say whether it exited 1."""
        config = self.config(f"errors_{label}", {**ERRORS, **record, **WRITES.get(command, {})})
        done = subprocess.run(
            [sys.executable, "-m", "dialroute", command, "--config", config],
            cwd=self.out,
            env=self.env,
            capture_output=True,
            text=True,
            check=False,
        )
        result = f"exit {done.returncode}\n{done.stderr}"
        (self.out / "errors" / f"{label}.txt").write_text(result, encoding="utf-8")
        return done.returncode == 1


def check_program(env: dict) -> None:
    """Stop unless ``python -m dialroute`` under ``env`` is this checkout's."""
    found = subprocess.run(
        [sys.executable, "-c", "import dialroute; print(dialroute.__file__)"],
        env=env,
        capture_output=True,
        text=True,
        check=False,
    ).stdout.strip()
    if not found or Path(found).resolve().parent != (ROOT / "src" / "dialroute").resolve():
        raise SystemExit(f"error: dialroute imports from {found or 'nowhere'}, not {ROOT / 'src'}")


def supervision_chain(chain: Chain, supervision: str) -> None:
    name = supervision.replace("+", "_")
    out_dir = f"cli/{name}"
    runs = {router: f"{out_dir}/run_{router}.jsonl" for router in ROUTERS}
    base = {**SIM3, "out_dir": out_dir, "supervision": supervision}
    config = chain.config(name, {**base, "run_path": runs["retrieval"], "report_runs": runs})
    for command in ("validate", "embed", "mine-and-train", "build-pools"):
        chain.run(f"{name}_{command}", command, "--config", config)
    for router in ROUTERS:
        record = {**base, "router": router, "run_path": runs[router]}
        routed = chain.config(f"{name}_{router}", record)
        chain.run(f"{name}_route_{router}", "route", "--config", routed)
    chain.run(f"{name}_report", "report", "--config", config)


def store_chain(chain: Chain) -> None:
    for corpus, path in (("test", SIM3["corpus"]), ("holdout", SIM3["holdout"])):
        config = chain.config(
            f"store_hash_{corpus}", {"holdout": path, "out_dir": f"store/{corpus}", "seed": 3}
        )
        chain.run(f"store_hash_embed_{corpus}", "embed", "--config", config)
    joined = "".join(
        (chain.out / "store" / corpus / "embeddings.jsonl").read_text(encoding="utf-8")
        for corpus in ("test", "holdout")
    )
    (chain.out / "store" / "store.jsonl").write_text(joined, encoding="utf-8")
    embedder = {"kind": "store", "path": "store/store.jsonl"}
    config = chain.config("store", {**SIM3, "embedder": embedder, "out_dir": "store/run"})
    for command in ("embed", "mine-and-train", "build-pools", "route", "report"):
        chain.run(f"store_{command}", command, "--config", config)


def damaged(chain: Chain, source: str, name: str, edit) -> str:
    """Write ``errors/inputs/<name>``: the JSON records of ``source``, one
    per line, after ``edit`` changed that list in place."""
    text = (chain.out / source).read_text(encoding="utf-8")
    records = [json.loads(line) for line in text.splitlines()]
    edit(records)
    path = Path("errors") / "inputs" / name
    (chain.out / path).write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
    return str(path)


def empty_vectors(records: list[dict]) -> None:
    for record in records:
        record["vector"] = []


def error_cases(chain: Chain) -> list[str]:
    """Run every error case; the labels of those that did not exit 1."""
    inputs = chain.out / "errors" / "inputs"
    inputs.mkdir(parents=True)
    dim128 = {**SIM3, "out_dir": "errors/dim128", "embedder": {"kind": "hash", "dim": 128}}
    config = chain.config("errors_dim128", {**dim128, "supervision": "none"})
    for command in ("embed", "mine-and-train", "build-pools"):
        chain.run(f"errors_dim128_{command}", command, "--config", config)

    def corpus(name, edit):
        return {"holdout": damaged(chain, SIM3["holdout"], name, edit)}

    def predictions(name, edit):
        slm = damaged(chain, SIM3["predictions"]["slm"], name, edit)
        return {"predictions": {**SIM3["predictions"], "slm": slm}}

    def artifact(key, name, edit):
        return {key: damaged(chain, SOURCES[key], name, edit)}

    def pools(name, edit):
        (inputs / name).mkdir()
        damaged(chain, f"{CHAIN}/pool_slm.json", f"{name}/pool_slm.json", edit)
        damaged(chain, f"{CHAIN}/pool_llm.json", f"{name}/pool_llm.json", lambda records: None)
        return {"pools_dir": f"errors/inputs/{name}"}

    def overflow(records):
        dim = records[0]["dim"]
        records[0]["matrix"] = [[1e300] * dim] * dim

    def first(**change):
        return lambda records: records[0].update(change)

    def first_turn(**change):
        return lambda records: records[0]["turns"][-1].update(change)

    def first_number(value, *path):
        """Give the first number of ``records[0][path…]`` as ``value``, which
        a cast to a float array would read as a number: the string "1.5" as
        1.5, ``True`` as 1.0."""

        def edit(records):
            row = records[0]
            for key in path:
                row = row[key]
            row[0] = value

        return edit

    # The llm file with the slm file's first prediction appended: a turn predicted twice.
    slm = (chain.out / SIM3["predictions"]["slm"]).read_text(encoding="utf-8").splitlines()
    both = damaged(chain, SIM3["predictions"]["llm"], "both.jsonl", lambda r: r.append(json.loads(slm[0])))

    dim128_store = "errors/dim128/embeddings.jsonl"
    cases = [  # label, command, config settings
        ("config_k", "validate", {"hyperparameters": {"k": "x"}}),
        ("config_cost", "validate", {"costs": {"experts": {"slm": "free", "llm": 1.0}}}),
        ("corpus_turn_id", "validate", corpus("turn_id.jsonl", first_turn(turn_id=9))),
        ("corpus_user", "validate", corpus("user.jsonl", first_turn(user=""))),
        ("predictions_confidence", "validate", predictions("conf.jsonl", first(confidence=True))),
        ("predictions_tlb", "validate", predictions("tlb.jsonl", first(tlb=["x"]))),
        ("predictions_duplicate", "validate", {"predictions": {**SIM3["predictions"], "llm": both}}),
        ("store_empty", "mine-and-train", artifact("embeddings_path", "empty.jsonl", empty_vectors)),
        ("store_value", "mine-and-train", artifact("embeddings_path", "value.jsonl", first(vector=["x"]))),
        ("store_string", "mine-and-train", artifact("embeddings_path", "string.jsonl", first_number("1.5", "vector"))),
        ("store_bool", "mine-and-train", artifact("embeddings_path", "bool.jsonl", first_number(True, "vector"))),
        ("adapter_overflow", "build-pools", artifact("adapter_path", "overflow.json", overflow)),
        ("adapter_shape", "build-pools", artifact("adapter_path", "shape.json", first(dim=3))),
        ("adapter_string", "build-pools", artifact("adapter_path", "string.json", first_number("1.5", "matrix", 0))),
        ("adapter_bool", "build-pools", artifact("adapter_path", "bool.json", first_number(True, "matrix", 0))),
        ("pool_vector", "route", pools("pool_vector", lambda r: r[0]["entries"][0].update(vector="abc"))),
        ("pool_expert", "route", pools("pool_expert", first(expert="ghost"))),
        ("pool_string", "route", pools("pool_string", first_number("1.5", "entries", 0, "vector"))),
        ("pool_bool", "route", pools("pool_bool", first_number(True, "entries", 0, "vector"))),
        ("run_votes", "report", artifact("run_path", "votes.jsonl", first(votes={"slm": "x"}))),
        ("run_summary", "report", artifact("run_path", "summary.jsonl", lambda r: r.pop())),
        ("dim_pools_vs_adapter", "route", {"pools_dir": "errors/dim128"}),
        ("dim_store_vs_adapter", "build-pools", {"embeddings_path": dim128_store}),
        ("dim_store_vs_query_embedder", "route", {"embeddings_path": dim128_store, "router": "classifier"}),
        ("dim_adapter_vs_query_embedder", "route", {"adapter_path": "errors/dim128/adapter.json"}),
    ]
    return [label for label, command, record in cases if not chain.case(label, command, record)]


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    out = Path(argv[0]).resolve()
    if out.exists() and any(out.iterdir()):
        print(f"error: {out} is not empty", file=sys.stderr)
        return 2
    for sub in ("configs", "stdout"):
        (out / sub).mkdir(parents=True, exist_ok=True)
    chain = Chain(out)
    check_program(chain.env)
    for seed in (0, 3):
        config = chain.config(f"sim{seed}", {"out_dir": f"sim{seed}"})
        chain.run(f"simulate_seed{seed}", "simulate", "--config", config, "--seed", str(seed))
    config = chain.config("sim_large", {"out_dir": "sim_large", "simulation": LARGE})
    chain.run("simulate_large", "simulate", "--config", config, "--seed", "0")
    for supervision in SUPERVISIONS:
        supervision_chain(chain, supervision)
    store_chain(chain)
    failed = error_cases(chain)
    print(f"{chain.steps} commands ran; artifacts and stdout in {out}")
    if failed:
        print(f"error: error cases that did not exit 1: {', '.join(failed)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
