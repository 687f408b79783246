"""Write ``corpus_maxima.json``: the REML maxima of the 72-fit scenario corpus.

The corpus is the N = 150 scenario draws with seed 3, w_s in {0, 0.5, 1} and
iterations 0-11, each fitted by SVC_M and by SNVC_M as ``predict_estimator``
fits them, on ``moran_basis(sites, 200)``.  For every fit the table keeps the
restricted log-likelihood, theta, the evaluation count, ``converged`` and the
inactive terms.  ``tests/test_corpus.py`` refits the corpus against it.

The table changes only through this script.  From the repository root:

    PYTHONPATH=src OPENBLAS_NUM_THREADS=1 python tests/data/make_corpus_maxima.py
"""

from __future__ import annotations

import json
from pathlib import Path

import snvc.simlab as simlab
from snvc.simlab import ScenarioConfig, gen_instance, predict_estimator
from snvc.spatial import moran_basis

TABLE = Path(__file__).with_name("corpus_maxima.json")
SEED, N_SITES, MAX_COMPONENTS = 3, 150, 200
W_S = (0.0, 0.5, 1.0)
ITERATIONS = range(12)
ESTIMATORS = ("SVC_M", "SNVC_M")


def corpus_fits() -> list[tuple[dict, object]]:
    """Every corpus fit as ((w_s, iteration, estimator) record key, ``FittedModel``)."""
    fits, original = [], simlab.fit_snvc

    def recording(*args, **kwargs):
        fit, fld = original(*args, **kwargs)
        fits.append(fit)
        return fit, fld

    out = []
    simlab.fit_snvc = recording
    try:
        for w_s in W_S:
            config = ScenarioConfig(n_sites=N_SITES, w_s=w_s, seed=SEED)
            for iteration in ITERATIONS:
                inst = gen_instance(config, iteration)
                basis = moran_basis(inst.sites, MAX_COMPONENTS)
                for estimator in ESTIMATORS:
                    predict_estimator(estimator, inst, basis)
                    out.append(({"w_s": w_s, "iteration": iteration, "estimator": estimator}, fits.pop()))
    finally:
        simlab.fit_snvc = original
    return out


def record(key: dict, fit) -> dict:
    theta = fit.theta
    return {
        **key,
        "restricted_loglik": fit.restricted_loglik,
        "theta": {
            "sigma2": theta.sigma2,
            "tau2_s": theta.tau2_s.tolist(),
            "alpha": theta.alpha.tolist(),
            "tau2_n": theta.tau2_n.tolist(),
        },
        "n_loglik_evals": fit.n_loglik_evals,
        "converged": fit.converged,
        "inactive_terms": list(fit.inactive_terms),
    }


def main() -> None:
    rows = [record(key, fit) for key, fit in corpus_fits()]
    TABLE.write_text(json.dumps({"fits": rows}, indent=1) + "\n")
    print(f"wrote {len(rows)} fits to {TABLE}")


if __name__ == "__main__":
    main()
