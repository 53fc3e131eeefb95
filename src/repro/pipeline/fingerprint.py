"""Pipeline-component fingerprints — the provenance identity of code.

A *fingerprint* answers "was this the same preprocessing?" for one
component at one moment: three SHA-256 digests over

* ``code`` — the component class's source text (falling back to its
  qualified name when source is unavailable);
* ``config`` — the scalar constructor-style attributes (ints, floats,
  strings, bools, tuples of those);
* ``stats`` — everything else the instance's pickled state carries:
  the fitted statistics arrays and running moments that online
  statistics computation advances.

plus a combined ``digest`` over all of the above. The split matters
operationally: a component whose ``code``/``config`` digests match but
whose ``stats`` digest moved was *the same transformation retrained*,
while a ``code`` change means the pipeline itself was edited.

These are the content-addressed node identities the provenance ledger
(:mod:`repro.obs.lineage`) stores per training event, and — by design
— the exact artifact ROADMAP item 3's cache-aware re-materialization
will key on: a downstream chunk only needs re-materializing when an
upstream component's fingerprint actually changed.

Serialization is canonical: attributes are visited in sorted order,
numpy arrays hash as ``dtype + shape + bytes``, nested objects recurse
through what pickle takes of them (:func:`_state`), so identical state
always produces identical digests.
"""

from __future__ import annotations

import functools
import hashlib
import inspect
import json
from typing import Any, Dict, List

import numpy as np
import scipy.sparse as sp

from repro.pipeline.component import PipelineComponent
from repro.pipeline.pipeline import Pipeline

#: Attribute value types binned into the ``config`` digest; everything
#: else (arrays, dicts, statistics objects) is fitted state.
_CONFIG_TYPES = (bool, int, float, str, bytes, type(None))

#: Recursion guard for pathological self-referencing state.
_MAX_DEPTH = 12


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _canonical(value: Any, depth: int = 0) -> Any:
    """A JSON-safe, deterministic rendering of one attribute value."""
    if depth > _MAX_DEPTH:
        return {"__deep__": type(value).__name__}
    if isinstance(value, bool) or value is None:
        return value
    if isinstance(value, (int, str)):
        return value
    if isinstance(value, float):
        # repr of the plain float is the shortest round-trip form —
        # stable across runs, distinguishes every distinct double, and
        # maps np.float64 (a float subclass) onto the same rendering.
        return {"__float__": repr(float(value))}
    if isinstance(value, bytes):
        return {"__bytes__": hashlib.sha256(value).hexdigest()}
    if isinstance(value, np.ndarray):
        array = np.ascontiguousarray(value)
        return {
            "__ndarray__": [
                array.dtype.str,
                list(array.shape),
                hashlib.sha256(array.tobytes()).hexdigest(),
            ]
        }
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return {"__float__": repr(float(value))}
    if sp.issparse(value):
        csr = value.tocsr()
        body = hashlib.sha256()
        body.update(np.ascontiguousarray(csr.data).tobytes())
        body.update(np.ascontiguousarray(csr.indices).tobytes())
        body.update(np.ascontiguousarray(csr.indptr).tobytes())
        return {
            "__sparse__": [list(csr.shape), body.hexdigest()]
        }
    if isinstance(value, (list, tuple)):
        return [_canonical(item, depth + 1) for item in value]
    if isinstance(value, (set, frozenset)):
        return {
            "__set__": sorted(
                json.dumps(
                    _canonical(item, depth + 1), sort_keys=True
                )
                for item in value
            )
        }
    if isinstance(value, dict):
        return {
            "__dict__": [
                [str(key), _canonical(value[key], depth + 1)]
                for key in sorted(value, key=str)
            ]
        }
    if hasattr(value, "__dict__"):
        return {
            "__obj__": type(value).__qualname__,
            "attrs": [
                [key, _canonical(attr, depth + 1)]
                for key, attr in sorted(_state(value).items())
            ],
        }
    return {"__repr__": repr(value)}


def _state(value: Any) -> Dict[str, Any]:
    """What pickle takes of ``value``: what its class's own
    ``__getstate__`` returns, if it defines one, else its ``__dict__``."""
    getstate = getattr(type(value), "__getstate__", None)
    if getstate in (None, getattr(object, "__getstate__", None)):
        return vars(value)
    return getstate(value)


def _digest_of(payload: Any) -> str:
    return _sha(
        json.dumps(payload, sort_keys=True, separators=(",", ":"))
    )


@functools.lru_cache(maxsize=None)
def _class_source_digest(cls: type) -> str:
    # Class source cannot change within one process, so the digest is
    # memoized per class — fingerprinting a pipeline after every
    # training burst must not re-tokenize source files each time.
    try:
        source = inspect.getsource(cls)
    except (OSError, TypeError):
        source = f"{cls.__module__}.{cls.__qualname__}"
    return _sha(source)


def code_digest(component: PipelineComponent) -> str:
    """Digest of the component class's source text.

    Interactive or generated classes without retrievable source fall
    back to the qualified name — still stable within one process tree,
    which is all the determinism contract needs.
    """
    return _class_source_digest(type(component))


def component_fingerprint(
    component: PipelineComponent,
) -> Dict[str, Any]:
    """The full fingerprint of one component, digest-stamped.

    What is fingerprinted is what would be pickled: a component that
    keeps derived data out of its ``__getstate__`` (the hasher's memo)
    keeps it out of its identity too.
    """
    config: Dict[str, Any] = {}
    stats: Dict[str, Any] = {}
    for key, value in sorted(_state(component).items()):
        if isinstance(value, _CONFIG_TYPES) or (
            isinstance(value, tuple)
            and all(isinstance(item, _CONFIG_TYPES) for item in value)
        ):
            config[key] = _canonical(value)
        else:
            stats[key] = _canonical(value)
    body = {
        "name": component.name,
        "kind": component.kind.value,
        "stateful": component.is_stateful,
        "code": code_digest(component),
        "config": _digest_of(config),
        "stats": _digest_of(stats),
    }
    body["digest"] = _digest_of(body)
    return body


def pipeline_fingerprint(pipeline: Pipeline) -> List[Dict[str, Any]]:
    """Fingerprints of every component, in chain order."""
    return [
        component_fingerprint(component) for component in pipeline
    ]
