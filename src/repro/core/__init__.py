"""The paper's primary contribution: the NoSQ mechanisms.

* :mod:`repro.core.ssn` -- store sequence numbers (SSNrename / SSNcommit)
  with wraparound drains (Section 2).
* :mod:`repro.core.srq` -- the store register queue: a rename-only structure
  holding store data-input register tags (Section 3.2).
* :mod:`repro.core.bypass_predictor` -- the hybrid path-sensitive
  distance-based store-load bypassing predictor with confidence/delay
  (Section 3.3).
* :mod:`repro.core.ssbf` -- the tagged store sequence Bloom filter (T-SSBF)
  (Sections 2.2 and 3.4).
* :mod:`repro.core.svw` -- SVW re-execution filtering with SMB-aware
  equality/inequality tests (Section 3.4).
* :mod:`repro.core.partial_word` -- partial-word bypassing transformations
  and the injected shift & mask operation (Section 3.5).
* :mod:`repro.core.commit_pipeline` -- the extended in-order back-end
  pipeline: store execution at commit, load address (re)generation, shared
  data-cache write port, flush latency (Section 3.4, Table 4).
"""

from repro._lazy import lazy_exports

#: Public name -> the submodule defining it, loaded on first access.
_EXPORTS = {
    "SSNCounters": "ssn",
    "SRQEntry": "srq",
    "StoreRegisterQueue": "srq",
    "BypassingPredictor": "bypass_predictor",
    "BypassPrediction": "bypass_predictor",
    "BypassPredictorConfig": "bypass_predictor",
    "TaggedSSBF": "ssbf",
    "SSBFEntry": "ssbf",
    "SVWFilter": "svw",
    "BypassVerdict": "svw",
    "BypassTransform": "partial_word",
    "transform_for": "partial_word",
    "apply_transform": "partial_word",
    "CommitPipeline": "commit_pipeline",
    "BackendConfig": "commit_pipeline",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
