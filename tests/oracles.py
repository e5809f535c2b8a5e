"""Reference implementations that the faster code must match, and helpers
only the tests use.

The references are the straightforward versions: a corpus generator that
converts every draw one numpy scalar at a time and rebuilds its slot table on
every turn, a pair merge that walks pair by pair, pair miners that score and
rank every candidate of every query in Python, a gradient accumulated pair by
pair and one checked by central finite differences, artifact writers that
``json.dump`` to a handle, and a synthetic expert that seeds a fresh
generator for every prediction. They are slow and kept only as test oracles.
"""

import heapq
import json

import numpy as np

from dialroute import ExpertPrediction, InputError, PairSet, f1_sets, tlb_similarity
from dialroute.dialogue import Corpus, Dialogue, Turn, _parse_corpus, render_belief
from dialroute.errors import parse_json
from dialroute.experts import _corrupt
from dialroute.seeding import subseed
from dialroute.simulate import (
    FILLER_WORDS,
    HOTEL_DOMAIN,
    HOTEL_SLOTS,
    HOTEL_WORDS,
    RESTAURANT_DOMAIN,
    RESTAURANT_SLOTS,
    RESTAURANT_WORDS,
)
from dialroute.supervision import (
    _effective_l,
    _loss_and_grad,
    _PairProblem,
    _sorted_turns,
    _rows,
)


_CLUSTERS = {
    HOTEL_DOMAIN: (HOTEL_WORDS, HOTEL_SLOTS),
    RESTAURANT_DOMAIN: (RESTAURANT_WORDS, RESTAURANT_SLOTS),
}


def _make_turns(rng, dialogue_id, clusters, spec):
    n_turns = int(rng.integers(spec.min_turns, spec.max_turns + 1))
    turns = []
    for t in range(n_turns):
        domain = clusters[int(rng.integers(len(clusters)))]
        words, slots = _CLUSTERS[domain]
        slot_names = sorted(slots)
        n_slots = 1 + int(rng.random() < 0.35)
        picked = rng.choice(len(slot_names), size=min(n_slots, len(slot_names)), replace=False)
        tlb = {}
        value_words = []
        for index in sorted(int(i) for i in picked):
            slot = slot_names[index]
            value = slots[slot][int(rng.integers(len(slots[slot])))]
            tlb[f"{domain}-{slot}"] = value
            value_words.append(value)
        cluster_words = [words[int(i)] for i in rng.choice(len(words), size=2, replace=False)]
        noise = [FILLER_WORDS[int(i)] for i in rng.integers(0, len(FILLER_WORDS), spec.noise_words)]
        tokens = cluster_words + value_words + noise
        order = rng.permutation(len(tokens))
        user = " ".join(tokens[int(i)] for i in order)
        if t == 0:
            system = ""
        else:
            sys_words = [words[int(rng.integers(len(words)))]] + [
                FILLER_WORDS[int(i)] for i in rng.integers(0, len(FILLER_WORDS), 3)
            ]
            system = " ".join(sys_words)
        turns.append(Turn(t, system, user, tlb))
    return turns


def generate_corpus(spec, count, prefix, stream):
    """``simulate.generate_corpus``: the same Generator calls in the same order."""
    rng = np.random.default_rng(subseed(spec.seed, f"corpus:{stream}"))
    dialogues = []
    for i in range(count):
        dialogue_id = f"{prefix}{i:04d}"
        if float(rng.random()) < spec.mixed_fraction:
            clusters = [HOTEL_DOMAIN, RESTAURANT_DOMAIN]
        else:
            clusters = [(HOTEL_DOMAIN, RESTAURANT_DOMAIN)[int(rng.integers(2))]]
        turns = _make_turns(rng, dialogue_id, clusters, spec)
        dialogues.append(Dialogue(dialogue_id, frozenset(clusters), tuple(turns)))
    return Corpus(tuple(dialogues))


def parse_dialogues(lines):
    """Parse JSON Lines corpus text; errors name the line as ``line N:``."""
    records = []
    for lineno, line in enumerate(lines, start=1):
        if line.strip():
            record = parse_json(line, f"line {lineno}:")
            if type(record) is not dict:
                raise InputError(f"line {lineno}: record is not an object")
            records.append((f"line {lineno}:", record))
    return _parse_corpus(records)


def turn_similarity(a, b):
    """Combined turn score in [-1.5, 1.5]: half the prior-state similarity
    plus the turn-belief similarity."""
    return 0.5 * tlb_similarity(a.prev_state, b.prev_state) + tlb_similarity(
        a.gold_tlb, b.gold_tlb
    )


def grad_check(adapter, pairs, embeddings, epsilon=1e-4, margin=0.2):
    """Maximum relative error between the analytic gradient and central finite
    differences, entry by entry. Intended for small dimensions."""
    problem = _PairProblem.compile(pairs, embeddings)
    W = np.asarray(adapter.matrix, dtype=np.float64)
    _, grad = _loss_and_grad(W, problem, margin)
    worst = 0.0
    for i in range(W.shape[0]):
        for j in range(W.shape[1]):
            bumped = W.copy()
            bumped[i, j] += epsilon
            plus, _ = _loss_and_grad(bumped, problem, margin)
            bumped[i, j] -= 2.0 * epsilon
            minus, _ = _loss_and_grad(bumped, problem, margin)
            estimate = (plus - minus) / (2.0 * epsilon)
            denom = max(abs(grad[i, j]), abs(estimate), 1e-8)
            worst = max(worst, abs(grad[i, j] - estimate) / denom)
    return worst


def merge_pairs(first, second):
    """Pair by pair: append each pair that its polarity does not hold yet,
    with the tag its source gave it."""
    merged = PairSet()
    for source in (first, second):
        for pool, into in ((source.positives, merged.positives), (source.negatives, merged.negatives)):
            for pair, tag in pool.items():
                if pair not in into:
                    into[pair] = tag
    return merged


def mine_task_pairs(holdout, pairs_per_query):
    """Top and bottom ``l`` candidates by the combined turn similarity, ties by key."""
    turns = _sorted_turns(holdout)
    l = _effective_l(pairs_per_query, len(turns) - 1, "task-aware")
    result = PairSet()
    if l == 0:
        return result
    profiles = [
        (
            frozenset(t.prev_state.items()),
            frozenset(t.prev_state.keys()),
            frozenset(t.gold_tlb.items()),
            frozenset(t.gold_tlb.keys()),
        )
        for t in turns
    ]
    keys = [t.key for t in turns]
    for i in range(len(turns)):
        si, ki, ti, gi = profiles[i]
        scored = []
        for j in range(len(turns)):
            if j == i:
                continue
            sj, kj, tj, gj = profiles[j]
            state_sim = f1_sets(si, sj) + f1_sets(ki, kj) - 1.0
            tlb_sim = f1_sets(ti, tj) + f1_sets(gi, gj) - 1.0
            scored.append((0.5 * state_sim + tlb_sim, keys[j]))
        top = heapq.nsmallest(l, scored, key=lambda t: (-t[0], t[1]))
        bottom = heapq.nsmallest(l, scored, key=lambda t: (t[0], t[1]))
        for _, candidate in top:
            result.positives[keys[i], candidate] = "task"
        for _, candidate in bottom:
            result.negatives[keys[i], candidate] = "task"
    return result


def mine_expert_pairs(holdout, expert_labels, embeddings, pairs_per_query):
    """Same-label turns among the top ``l`` by cosine, different-label turns
    among the bottom ``l``."""
    turns = _sorted_turns(holdout)
    l = _effective_l(pairs_per_query, len(turns) - 1, "expert-aware")
    result = PairSet()
    if l == 0:
        return result
    keys = [t.key for t in turns]
    labels = [expert_labels[key] for key in keys]
    matrix = _rows(embeddings, keys)
    norms = np.linalg.norm(matrix, axis=1)
    safe = np.where(norms == 0.0, 1.0, norms)
    unit = matrix / safe[:, None]
    scores = unit @ unit.T
    for i in range(len(turns)):
        scored = [(float(scores[i, j]), keys[j], labels[j]) for j in range(len(turns)) if j != i]
        top = heapq.nsmallest(l, scored, key=lambda t: (-t[0], t[1]))
        bottom = heapq.nsmallest(l, scored, key=lambda t: (t[0], t[1]))
        for _, candidate, label in top:
            if label == labels[i]:
                result.positives[keys[i], candidate] = "expert"
        for _, candidate, label in bottom:
            if label != labels[i]:
                result.negatives[keys[i], candidate] = "expert"
    return result


_CHUNK = 16384
_BLOCK = 1024


def _tangent(coeff, a, b, s, scale):
    """Rows of ``coeff * (a - s * b) / scale``, in place over blocks of rows."""
    out = np.empty_like(a)
    for lo in range(0, len(out), _BLOCK):
        hi = lo + _BLOCK
        block = out[lo:hi]
        np.multiply(s[lo:hi, None], b[lo:hi], out=block)
        np.subtract(a[lo:hi], block, out=block)
        np.multiply(coeff[lo:hi, None], block, out=block)
        np.divide(block, scale[lo:hi, None], out=block)
    return out


def _polarity_terms(W, base, q_idx, c_idx, positive, margin, grad, magnitude):
    n = len(q_idx)
    projected = base @ W.T
    norms = np.linalg.norm(projected, axis=1)
    ok_row = norms > 0.0
    safe = np.where(ok_row, norms, 1.0)
    unit = projected / safe[:, None]
    unit[~ok_row] = 0.0
    total = 0.0
    for start in range(0, n, _CHUNK):
        q = q_idx[start : start + _CHUNK]
        c = c_idx[start : start + _CHUNK]
        uq, uc = unit[q], unit[c]
        s = np.einsum("ij,ij->i", uq, uc)
        ok = ok_row[q] & ok_row[c]
        s = np.where(ok, s, 0.0)
        if positive:
            total += float(np.sum(1.0 - s))
            coeff = np.where(ok, -1.0 / n, 0.0)
        else:
            hinge = np.maximum(0.0, s - margin)
            total += float(np.sum(hinge))
            coeff = np.where(ok & (s > margin), 1.0 / n, 0.0)
        x = _tangent(coeff, uc, uq, s, safe[q])
        y = _tangent(coeff, uq, uc, s, safe[c])
        grad += x.T @ base[q]
        grad += y.T @ base[c]
        size = np.abs(coeff)[:, None] * (np.abs(uc) + np.abs(s)[:, None] * np.abs(uq))
        magnitude += (size / safe[q][:, None]).T @ np.abs(base[q])
        size = np.abs(coeff)[:, None] * (np.abs(uq) + np.abs(s)[:, None] * np.abs(uc))
        magnitude += (size / safe[c][:, None]).T @ np.abs(base[c])
    return total


def loss_and_grad(W, problem, margin):
    """Loss, gradient accumulated pair by pair, and the gradient's magnitude:
    the same sum over |coeff|·(|a| + |s|·|b|) / norm ⊗ |base|, the operands
    before cancellation, which is the scale rounding errors are relative to."""
    grad = np.zeros_like(W)
    magnitude = np.zeros_like(W)
    loss = 0.0
    for part, positive in ((slice(0, problem.n_pos), True), (slice(problem.n_pos, None), False)):
        q, c = problem.q[part], problem.c[part]
        if len(q):
            total = _polarity_terms(W, problem.base, q, c, positive, margin, grad, magnitude)
            loss += total / len(q)
    return loss, grad, magnitude


# --- artifact writers -----------------------------------------------------------


def _dump(record, path, **options):
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(record, handle, **options)
        handle.write("\n")


def save_pairs(pairs, path):
    record = {
        "positives": [[q, c, tag] for (q, c), tag in pairs.positives.items()],
        "negatives": [[q, c, tag] for (q, c), tag in pairs.negatives.items()],
    }
    _dump(record, path, ensure_ascii=False)


def save_loss_history(history, path):
    _dump({"loss_history": history}, path)


def save_report(report, path):
    _dump(report.to_record(), path, ensure_ascii=False)


def save_series(series, path):
    _dump({"series": series}, path, ensure_ascii=False)


def write_predictions(predictions, path):
    with open(path, "w", encoding="utf-8") as handle:
        for pred in predictions:
            record = {
                "dialogue_id": pred.dialogue_id,
                "turn_id": pred.turn_id,
                "expert": pred.expert,
                "tlb": render_belief(pred.tlb),
                "confidence": pred.confidence,
            }
            handle.write(json.dumps(record, ensure_ascii=False) + "\n")


def synthetic_predict(expert, triplet):
    """``SyntheticExpert.predict`` on a fresh ``default_rng`` seeded on (seed,
    expert, turn key): its first ``random()`` below the accuracy means the gold
    belief, otherwise ``_corrupt`` draws on from the same generator."""
    gold = expert._gold[triplet.key]
    rng = np.random.default_rng(subseed(expert._seed, f"{expert.id.name}:{triplet.key}"))
    profile = expert.profile
    in_region = profile.competence_predicate(triplet)
    accuracy = profile.accuracy_in if in_region else profile.accuracy_out
    if float(rng.random()) < accuracy:
        tlb, confidence = dict(gold), profile.confidence_when_correct
    else:
        tlb, confidence = _corrupt(gold, rng), profile.confidence_when_wrong
    return ExpertPrediction(triplet.dialogue_id, triplet.turn_id, expert.id.name, tlb, confidence)
