"""Run the CLI byte-identity chain and keep every artifact and stdout.

    python3 scripts/byte_chain.py OUT_DIR

Runs this checkout's ``dialroute`` (its ``src``, nothing installed) with
``OPENBLAS_NUM_THREADS=1``, from inside OUT_DIR, which must be new or empty:

- ``simulate --seed 0`` and ``--seed 3`` into ``sim0/`` and ``sim3/``;
- on seed 3's corpora and predictions, once per supervision kind (``none``,
  ``task``, ``expert``, ``task+expert``) into ``cli/<kind>/``: ``validate``,
  ``embed``, ``mine-and-train``, ``build-pools``, ``route`` with each router
  (retrieval, oracle, cascade, classifier; one ``run_<router>.jsonl`` each)
  and ``report`` (``report.json`` of the retrieval run, ``series.json`` of
  all four);
- the store-embedder chain in ``store/``: ``embed`` the test and hold-out
  corpora with the hash embedder, join the two files into ``store.jsonl``,
  then ``embed``, ``mine-and-train``, ``build-pools``, ``route`` and
  ``report`` with ``{"kind": "store"}``.

Each command's standard output goes to ``stdout/<nn>_<step>.txt``, and every
path in a config or output is relative to OUT_DIR, so two checkouts' trees
compare with ``diff -r``. The script stops with exit status 1 at the first
command that fails.
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
    for supervision in SUPERVISIONS:
        supervision_chain(chain, supervision)
    store_chain(chain)
    print(f"{chain.steps} commands ran; artifacts and stdout in {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
