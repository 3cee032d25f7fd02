"""Checkpoint save/load, including loading into customized MoE architectures.

``save_checkpoint`` / ``load_checkpoint`` persist a model's parameters as an
``.npz`` archive.  :func:`load_model` reproduces the paper's
``Flux.moe.load_model(model_path, exps_config)`` API: it builds a model whose
MoE layers may have a *different* number of experts than the checkpoint and
loads expert weights and non-expert weights separately, so a compact or
re-configured model can start from the original pre-trained parameters.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict
from typing import Dict, Optional, Sequence, Tuple, Union

import numpy as np

from .config import MoEModelConfig
from .customize import customized_moe
from .transformer import MoETransformer

_CONFIG_KEY = "__config_json__"

#: ``MoEModelConfig`` fields that no longer exist (``dispatch``: the MoE layer
#: has one kernel), dropped from an older archive's embedded config on load
_RETIRED_CONFIG_FIELDS = frozenset({"dispatch"})


def save_checkpoint(model: MoETransformer, path: Union[str, "os.PathLike[str]"]) -> str:
    """Serialise model parameters and config to ``path`` (``.npz``).

    Returns the path of the file actually written.  ``np.savez`` appends an
    ``.npz`` suffix when the target lacks one; rather than second-guessing
    that rule, the suffix is resolved *before* writing and the resolved name
    is what both ``np.savez`` receives and the caller gets back — the two can
    never disagree (including for ``os.PathLike`` inputs and suffixes that
    merely *contain* ``.npz``, e.g. ``model.npz.bak``).
    """
    return save_state_checkpoint(model.state_dict(), model.config, path)


def save_state_checkpoint(state: Dict[str, np.ndarray], config: MoEModelConfig,
                          path: Union[str, "os.PathLike[str]"]) -> str:
    """:func:`save_checkpoint` from an already-captured ``(state, config)``.

    Lets a background checkpoint writer persist a snapshot captured earlier on
    the round loop without touching the (by then possibly mutated) live model.
    """
    target = os.fspath(path)
    if not target.endswith(".npz"):
        target += ".npz"
    directory = os.path.dirname(os.path.abspath(target))
    if directory:
        os.makedirs(directory, exist_ok=True)
    config_json = json.dumps(asdict(config))
    np.savez(target, **state, **{_CONFIG_KEY: np.array(config_json)})
    return target


def save_state_delta(state: Dict[str, np.ndarray],
                     reference: Dict[str, np.ndarray],
                     path: Union[str, "os.PathLike[str]"]) -> str:
    """Write ``state`` as an exact sparse delta against ``reference``.

    The payload is one CRC-framed :func:`repro.comm.encode_state_dict` frame
    under the ``sparse-delta`` codec: per tensor, the indices of the entries
    that differ from the reference plus their raw new values — bit-exact to
    reconstruct, and tiny when only a few experts moved between snapshots.
    Written through a temp file + atomic rename.
    """
    from ..comm import encode_state_dict, get_codec  # deferred: package cycle

    frame = encode_state_dict(state, get_codec("sparse-delta"), reference=reference)
    target = os.fspath(path)
    directory = os.path.dirname(os.path.abspath(target))
    if directory:
        os.makedirs(directory, exist_ok=True)
    tmp = target + ".tmp"
    with open(tmp, "wb") as handle:
        handle.write(frame)
    os.replace(tmp, target)
    return target


def load_state_delta(path: str,
                     reference: Dict[str, np.ndarray]) -> Dict[str, np.ndarray]:
    """Inverse of :func:`save_state_delta`: reconstruct the full state dict."""
    from ..comm import decode_state_dict  # deferred: package cycle

    with open(path, "rb") as handle:
        frame = handle.read()
    return decode_state_dict(frame, reference=reference)


def load_checkpoint(path: str) -> MoETransformer:
    """Load a checkpoint into a model with the architecture it was saved with."""
    config, state = load_checkpoint_state(path)
    model = MoETransformer(config)
    model.load_state_dict(state)
    return model


def load_checkpoint_state(path: str) -> Tuple[MoEModelConfig, Dict[str, np.ndarray]]:
    """The raw ``(config, state_dict)`` stored in a checkpoint archive.

    Useful when the parameters should be loaded into an *existing* model
    instance (e.g. the run-state layer restoring a parameter server's global
    model in place) rather than a freshly constructed one.
    """
    archive = np.load(_resolve(path), allow_pickle=False)
    config = _config_from_archive(archive)
    state = {key: archive[key] for key in archive.files if key != _CONFIG_KEY}
    return config, state


def load_model(model_path: str, exps_config: Optional[Union[int, Sequence[int], Dict[int, int]]] = None
               ) -> MoETransformer:
    """Load checkpoint parameters into a (possibly customized) MoE model.

    This mirrors ``Flux.moe.load_model``: expert parameters and non-expert
    parameters (attention, norms, embeddings, gates) are loaded separately so
    that an architecture with fewer experts per layer still receives the
    pre-trained weights for the experts it keeps (experts are retained in
    original-id order) and all shared components.

    Parameters
    ----------
    model_path:
        Path to an ``.npz`` checkpoint produced by :func:`save_checkpoint`.
    exps_config:
        Per-layer expert counts for the customized architecture.  ``None``
        loads the original architecture unchanged.
    """
    config, state = load_checkpoint_state(model_path)
    base = MoETransformer(config)
    base.load_state_dict(state)
    if exps_config is None:
        return base
    return customized_moe(base, exps_config)


def _resolve(path: str) -> str:
    if os.path.exists(path):
        return path
    if os.path.exists(path + ".npz"):
        return path + ".npz"
    raise FileNotFoundError(f"checkpoint not found: {path}")


def _config_from_archive(archive) -> MoEModelConfig:
    if _CONFIG_KEY not in archive.files:
        raise KeyError("checkpoint is missing its embedded config")
    raw = json.loads(str(archive[_CONFIG_KEY]))
    return MoEModelConfig(**{key: value for key, value in raw.items()
                             if key not in _RETIRED_CONFIG_FIELDS})
