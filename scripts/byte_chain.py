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
  corpora with the hash embedder, join the two stores with numpy into the
  imported store ``store.json`` and ``store.npy`` (written as README shows),
  then ``embed``, ``mine-and-train``, ``build-pools``, ``route`` and
  ``report`` with ``{"kind": "store"}``;
- the error cases in ``errors/``: a 128-dim ``embed``, ``mine-and-train``
  and ``build-pools`` into ``errors/dim128/``, then one command per damaged
  input (one to six per loader, written to ``errors/inputs/`` from the
  artifacts above, among them store, adapter and pool bodies that are cut
  short, pickled objects, booleans, ints or complex numbers, 1-D or 3-D, of
  the wrong row count, stale or missing, and a turn predicted for one
  expert in two files), per pair of artifacts that do not fit each other
  in dim, and per path the OS refuses (an output under a regular file, a
  store head that names a directory, a NUL in an input path), per
  misspelled config key (at the top, in ``hyperparameters``, in ``costs``),
  for a ``prior_mode`` setting and a ``pool_size`` map, for a fit that
  diverges and one whose loss rises, in ``mine-and-train`` and in
  ``simulate``, for a ``simulate`` whose experts solve no turn (so every pool
  is empty), and for a pool entry keyed by no turn or by a turn of the routed
  corpus, 43 cases in all. Each case's exit code and standard error go to
  ``errors/<case>.txt``.

Each command's standard output goes to ``stdout/<nn>_<step>.txt``, and every
path in a config or output is relative to OUT_DIR, so two checkouts' trees
compare with ``diff -r``. The script stops with exit status 1 at the first
command of the chain that fails, and once every error case has run, exits 1
if any of them did not exit 1.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

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
    "embeddings_path": f"{CHAIN}/embeddings.json",
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
# A small simulation whose fit the learning rate decides.
SMALL_FIT = {"dialogues": 30, "holdout_dialogues": 20, "embedding_dim": 64, "epochs": 3, "margin": 0.2, "seed": 0}
# Experts that get every turn wrong: no hold-out turn enters a pool.
NEVER_RIGHT = {f"{expert}_accuracy_{where}": 0.0 for expert in ("slm", "llm") for where in ("in", "out")}


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
    keys, rows = [], []
    for corpus in ("test", "holdout"):
        head = chain.out / "store" / corpus / "embeddings.json"
        keys += json.loads(head.read_text(encoding="utf-8"))["keys"]
        rows.append(np.load(head.with_suffix(".npy"), allow_pickle=False))
    write_store(chain.out / "store" / "store.json", keys, np.concatenate(rows))
    embedder = {"kind": "store", "path": "store/store.json"}
    config = chain.config("store", {**SIM3, "embedder": embedder, "out_dir": "store/run"})
    for command in ("embed", "mine-and-train", "build-pools", "route", "report"):
        chain.run(f"store_{command}", command, "--config", config)


def npy(array: np.ndarray) -> bytes:
    """``array`` in the ``.npy`` format; an object array is pickled into it."""
    buffer = io.BytesIO()
    np.lib.format.write_array(buffer, array, allow_pickle=array.dtype.hasobject)
    return buffer.getvalue()


def write_store(head: Path, keys: list[str], vectors: np.ndarray) -> None:
    """An embedding store for ``{"kind": "store"}``: the float32 body, then
    the head with its blake2b digest, dim and keys."""
    body = npy(np.ascontiguousarray(vectors, dtype=np.float32))
    head.with_suffix(".npy").write_bytes(body)
    record = {"body_blake2b": hashlib.blake2b(body).hexdigest(), "dim": vectors.shape[1], "keys": keys}
    head.write_text(json.dumps(record, ensure_ascii=False) + "\n", encoding="utf-8")


def damaged_table(chain: Chain, source: str, name: str, edit, stale: bool = False) -> str:
    """Write ``errors/inputs/<name>.json`` and its body from the table whose
    head is ``source``, through ``edit(head, body) -> (head, body)``; the body
    comes back as an array, raw bytes or None (no body). The head's digest is
    set to the new body's unless ``stale``."""
    head_path = chain.out / source
    head = json.loads(head_path.read_text(encoding="utf-8"))
    head, body = edit(head, np.load(head_path.with_suffix(".npy"), allow_pickle=False))
    path = Path("errors") / "inputs" / f"{name}.json"
    if body is not None:
        body = npy(body) if isinstance(body, np.ndarray) else body
        (chain.out / path).with_suffix(".npy").write_bytes(body)
        if not stale:
            head["body_blake2b"] = hashlib.blake2b(body).hexdigest()
    (chain.out / path).write_text(json.dumps(head) + "\n", encoding="utf-8")
    return str(path)


def damaged(chain: Chain, source: str, name: str, edit) -> str:
    """Write ``errors/inputs/<name>``: the JSON records of ``source``, one
    per line, after ``edit`` changed that list in place."""
    text = (chain.out / source).read_text(encoding="utf-8")
    records = [json.loads(line) for line in text.splitlines()]
    edit(records)
    path = Path("errors") / "inputs" / name
    (chain.out / path).write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
    return str(path)


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

    def table(key, name, edit, stale=False):
        return {key: damaged_table(chain, SOURCES[key], name, edit, stale)}

    def pools(name, edit):
        (inputs / name).mkdir()
        damaged_table(chain, f"{CHAIN}/pool_slm.json", f"{name}/pool_slm", edit)
        damaged_table(chain, f"{CHAIN}/pool_llm.json", f"{name}/pool_llm", lambda h, b: (h, b))
        return {"pools_dir": f"errors/inputs/{name}"}

    def first_key(key):
        """A pool edit that gives its first entry the key ``key``."""

        def edit(head, array):
            head["entries"][0]["key"] = key
            return head, array

        return edit

    def body(change):
        """A table edit that keeps the head and gives ``change(body)`` as the body."""
        return lambda head, array: (head, change(array))

    def first(**change):
        return lambda records: records[0].update(change)

    def first_turn(**change):
        return lambda records: records[0]["turns"][-1].update(change)

    # The llm file with the slm file's first prediction appended: a turn predicted twice.
    slm = (chain.out / SIM3["predictions"]["slm"]).read_text(encoding="utf-8").splitlines()
    both = damaged(chain, SIM3["predictions"]["llm"], "both.jsonl", lambda r: r.append(json.loads(slm[0])))

    dim128_store = "errors/dim128/embeddings.json"
    (inputs / "store_dir.json").mkdir()  # a store head the OS will not write
    store, adapter = "embeddings_path", "adapter_path"
    cases = [  # label, command, config settings
        ("config_k", "validate", {"hyperparameters": {"k": "x"}}),
        ("config_cost", "validate", {"costs": {"experts": {"slm": "free", "llm": 1.0}}}),
        ("config_key_top", "validate", {"routr": "oracle"}),
        ("config_key_hyperparameters", "validate", {"hyperparamters": {"k": 3}}),
        ("config_key_costs", "validate", {"costs": {"expert": {"slm": 0.04, "llm": 3000.0}}}),
        ("config_prior_mode", "validate", {"prior_mode": "gold"}),
        ("config_pool_size_map", "validate", {"hyperparameters": {"pool_size": {"slm": 300, "llm": 100}}}),
        ("corpus_turn_id", "validate", corpus("turn_id.jsonl", first_turn(turn_id=9))),
        ("corpus_user", "validate", corpus("user.jsonl", first_turn(user=""))),
        ("predictions_confidence", "validate", predictions("conf.jsonl", first(confidence=True))),
        ("predictions_tlb", "validate", predictions("tlb.jsonl", first(tlb=["x"]))),
        ("predictions_duplicate", "validate", {"predictions": {**SIM3["predictions"], "llm": both}}),
        ("fit_diverged", "mine-and-train", {"hyperparameters": {"learning_rate": 1e300, "epochs": 3}}),
        ("fit_rose", "mine-and-train", {"hyperparameters": {"learning_rate": 1e10, "epochs": 3}}),
        ("simulate_fit_rose", "simulate", {"simulation": {**SMALL_FIT, "learning_rate": 100.0}}),
        ("simulate_fit_diverged", "simulate", {"simulation": {**SMALL_FIT, "learning_rate": 1e200}}),
        ("simulate_pools_empty", "simulate", {"simulation": {**SMALL_FIT, **NEVER_RIGHT}}),
        ("store_empty", "mine-and-train", table(store, "empty", lambda h, b: ({**h, "dim": 0}, b[:, :0]))),
        ("store_truncated", "mine-and-train", table(store, "truncated", body(lambda b: npy(b)[:-100]))),
        ("store_object", "mine-and-train", table(store, "object", body(lambda b: b.astype(object)))),
        ("store_rows", "mine-and-train", table(store, "rows", body(lambda b: b[:-1]))),
        ("store_stale", "mine-and-train", table(store, "stale", body(lambda b: b * 2), stale=True)),
        ("store_missing", "mine-and-train", table(store, "missing", body(lambda b: None))),
        ("adapter_overflow", "build-pools", table(adapter, "overflow", body(lambda b: np.full(b.shape, 1e300)))),
        ("adapter_shape", "build-pools", table(adapter, "shape", lambda h, b: ({**h, "dim": 3}, b))),
        ("adapter_int", "build-pools", table(adapter, "int", body(lambda b: b.astype(np.int64)))),
        ("adapter_complex", "build-pools", table(adapter, "complex", body(lambda b: b.astype(complex)))),
        ("adapter_3d", "build-pools", table(adapter, "3d", body(lambda b: b[None]))),
        ("pool_expert", "route", pools("pool_expert", lambda h, b: ({**h, "expert": "ghost"}, b))),
        ("pool_bool", "route", pools("pool_bool", body(lambda b: b > 0))),
        ("pool_1d", "route", pools("pool_1d", body(np.ravel))),
        ("pool_rows", "route", pools("pool_rows", body(lambda b: np.concatenate([b, b[:1]])))),
        ("pool_key_not_a_turn", "route", pools("pool_key_not_a_turn", first_key("x"))),
        ("pool_key_in_corpus", "route", pools("pool_key_in_corpus", first_key("dlg0000:0"))),
        ("run_votes", "report", artifact("run_path", "votes.jsonl", first(votes={"slm": "x"}))),
        ("run_summary", "report", artifact("run_path", "summary.jsonl", lambda r: r.pop())),
        ("dim_pools_vs_adapter", "route", {"pools_dir": "errors/dim128"}),
        ("dim_store_vs_adapter", "build-pools", {"embeddings_path": dim128_store}),
        ("dim_store_vs_query_embedder", "route", {"embeddings_path": dim128_store, "router": "classifier"}),
        ("dim_adapter_vs_query_embedder", "route", {"adapter_path": "errors/dim128/adapter.json"}),
        ("output_blocked", "embed", {store: f"{SIM3['corpus']}/embeddings.json"}),
        ("output_directory", "embed", {store: "errors/inputs/store_dir.json"}),
        ("path_nul", "validate", {"corpus": "a\0b"}),
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
