"""The synthetic corpus generator against its reference.

The corpus is a pure function of the seed and of the order of the Generator
calls, so the fast generator must write the reference's bytes for every spec.
"""

import pytest

import oracles
from dialroute.dialogue import save_corpus
from dialroute.simulate import SimulationSpec, generate_corpus


@pytest.mark.parametrize("seed", [0, 3, 7])
@pytest.mark.parametrize("mixed_fraction", [0.0, 0.1, 1.0])
@pytest.mark.parametrize("noise_words", [0, 32])
@pytest.mark.parametrize("turns", [(1, 1), (3, 6)])
def test_generator_writes_the_references_bytes(tmp_path, seed, mixed_fraction, noise_words, turns):
    spec = SimulationSpec(
        seed=seed,
        mixed_fraction=mixed_fraction,
        noise_words=noise_words,
        min_turns=turns[0],
        max_turns=turns[1],
    )
    for prefix, stream in (("dlg", "test"), ("hld", "holdout")):
        save_corpus(generate_corpus(spec, 40, prefix, stream), str(tmp_path / "fast.jsonl"))
        save_corpus(oracles.generate_corpus(spec, 40, prefix, stream), str(tmp_path / "ref.jsonl"))
        assert (tmp_path / "fast.jsonl").read_bytes() == (tmp_path / "ref.jsonl").read_bytes()
