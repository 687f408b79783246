"""The corpus gate: no REML maximum of the 72-fit scenario corpus moves.

``data/corpus_maxima.json`` holds the restricted log-likelihood, theta, the
evaluation count, ``converged`` and the inactive terms of every corpus fit,
written by ``data/make_corpus_maxima.py``.  A change that moves a maximum
regenerates the table with that script and lists every moved fit.
"""

import importlib.util
import json
from pathlib import Path

DATA = Path(__file__).with_name("data")

# Corpus log-likelihoods under one and two BLAS threads differ by at most
# about 2e-8 nats, and the basin changes seen so far by 0.0076 nats or more.
LOGLIK_TOL = 1e-6


def load_script():
    spec = importlib.util.spec_from_file_location("make_corpus_maxima", DATA / "make_corpus_maxima.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_no_corpus_maximum_moved():
    script = load_script()
    table = json.loads(script.TABLE.read_text())["fits"]
    rows = [script.record(key, fit) for key, fit in script.corpus_fits()]
    assert [(r["w_s"], r["iteration"], r["estimator"]) for r in rows] == [
        (r["w_s"], r["iteration"], r["estimator"]) for r in table
    ]
    moves = [(new["restricted_loglik"] - old["restricted_loglik"], old, new) for old, new in zip(table, rows)]
    moved = [m for m in moves if abs(m[0]) > LOGLIK_TOL]
    for delta, old, new in moved:
        print(
            f"moved: w_s={old['w_s']} iteration={old['iteration']} {old['estimator']}: "
            f"{old['restricted_loglik']!r} -> {new['restricted_loglik']!r} ({delta:+.3g} nats)"
        )
    largest = max(moves, key=lambda m: abs(m[0]))
    # Evaluation counts differ with the BLAS thread count, so they are shown, not compared.
    print(
        f"largest move {abs(largest[0])!r} nats ({largest[1]['estimator']}, w_s={largest[1]['w_s']}, "
        f"iteration={largest[1]['iteration']}); evaluations {sum(r['n_loglik_evals'] for r in rows)} "
        f"against {sum(r['n_loglik_evals'] for r in table)} in the table"
    )
    assert not moved, f"{len(moved)} of {len(rows)} corpus maxima moved by more than {LOGLIK_TOL} nats"
