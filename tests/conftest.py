import hashlib
import io
import json
from pathlib import Path

import numpy as np
import pytest

from dialroute import Corpus, CostTable, SimulationSpec, make_report, run_simulation
from oracles import parse_dialogues


def trn(turn_id, user, system="", tlb=None):
    return {"turn_id": turn_id, "system": system, "user": user, "gold_tlb": tlb or {}}


def dlg(dialogue_id, turns, domains=("hotel",)):
    return {"dialogue_id": dialogue_id, "domains": list(domains), "turns": turns}


def corpus_of(*dialogues) -> Corpus:
    return parse_dialogues(json.dumps(d) for d in dialogues)


def cosine(u, v) -> float:
    """Reference cosine similarity; 0.0 when either vector has zero norm."""
    u64 = np.asarray(u, dtype=np.float64)
    v64 = np.asarray(v, dtype=np.float64)
    if u64.shape != v64.shape:
        raise ValueError(f"dimension mismatch: {u64.shape} vs {v64.shape}")
    nu = float(np.linalg.norm(u64))
    nv = float(np.linalg.norm(v64))
    if nu == 0.0 or nv == 0.0:
        return 0.0
    return float(np.dot(u64, v64) / (nu * nv))


def npy_bytes(array) -> bytes:
    """``array`` in the ``.npy`` format; an object array is pickled into it."""
    buffer = io.BytesIO()
    np.lib.format.write_array(buffer, array, allow_pickle=array.dtype.hasobject)
    return buffer.getvalue()


def edit_table(head_path, edit) -> None:
    """Rewrite the vector table whose JSON head is at ``head_path`` through
    ``edit(head, body) -> (head, body)``, the body read as an array and
    written back from an array or raw bytes; the head's digest is set to the
    new body's, so a loader's checks after the digest see the edit."""
    head_path = Path(head_path)
    body_path = head_path.with_suffix(".npy")
    head = json.loads(head_path.read_text(encoding="utf-8"))
    head, body = edit(head, np.load(body_path))
    if isinstance(body, np.ndarray):
        body = npy_bytes(body)
    body_path.write_bytes(body)
    head["body_blake2b"] = hashlib.blake2b(body).hexdigest()
    head_path.write_text(json.dumps(head), encoding="utf-8")


def _scores(run, corpus):
    """make_report with every expert free of cost: only its scores matter here."""
    return make_report(run, corpus, CostTable({e.name: 0.0 for e in run.experts}))


def tlb_jga(run, corpus) -> float:
    return _scores(run, corpus).tlb_jga


def dst_jga(run, corpus) -> float:
    return _scores(run, corpus).dst_jga


def assignment_ratio(run) -> dict[str, float]:
    """make_report's assignment ratio, over a corpus made of the run's own turns."""
    turns: dict[str, list] = {}
    for key in run.keys():
        dialogue_id, turn_id = key.rsplit(":", 1)
        turns.setdefault(dialogue_id, []).append(trn(int(turn_id), "u"))
    corpus = corpus_of(*(dlg(dialogue_id, t) for dialogue_id, t in turns.items()))
    return _scores(run, corpus).assignment_ratio


@pytest.fixture(scope="session")
def small_sim(tmp_path_factory):
    """One small synthetic pipeline run shared by the slower integration tests."""
    out = tmp_path_factory.mktemp("sim")
    spec = SimulationSpec(
        dialogues=30, holdout_dialogues=20, embedding_dim=64, pool_size=40, epochs=10, seed=3
    )
    return run_simulation(spec, out)
