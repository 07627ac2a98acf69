"""Self-contained dense retrieval with a trained feedback query encoder.

Word-level tokenization with an explicit casing policy, a small transformer
dual-encoder in pure numpy (analytic gradients included), exact inner-product
search, two-round feedback retrieval, contrastive training, and TREC-style
evaluation, all reproducible from seeds on a single machine.
"""

import os as _os

# PRF_THREADS, when set, overrides the BLAS thread variables.  It must act
# before numpy loads its BLAS; results do not depend on it.
_prf_threads = _os.environ.get("PRF_THREADS")
if _prf_threads:
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        _os.environ[_var] = _prf_threads

__version__ = "0.1.0"
