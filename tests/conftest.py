import json

import numpy as np
import pytest

from dialroute import Corpus, SimulationSpec, run_simulation
from dialroute.dialogue import parse_dialogues


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


@pytest.fixture(scope="session")
def small_sim(tmp_path_factory):
    """One small synthetic pipeline run shared by the slower integration tests."""
    out = tmp_path_factory.mktemp("sim")
    spec = SimulationSpec(
        dialogues=30, holdout_dialogues=20, embedding_dim=64, pool_size=40, epochs=10, seed=3
    )
    return run_simulation(spec, out)
