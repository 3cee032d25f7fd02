"""Oracle for the read-rows forward pass: every position computed.

:func:`every_position_computed` patches the model so that every row of every
MoE layer is live (padding and rows nobody reads go through their experts, as
they did before a row was computed only as far as it is read) and the LM head
runs on every position, the rows a caller asked for being sliced out of the
full logits afterwards.  Under it ``compute_loss``, ``evaluate_model`` and the
probe cost what they used to; the contract is equal losses and metrics, equal
gradients of every expert a live row reaches (to 1e-12: an expert GEMM over
fewer rows may round differently), an all-zero gradient for an expert only
dead rows reach, and equal routed counts and sample sets.
"""

from __future__ import annotations

import contextlib
from unittest import mock

from repro.autograd import take_rows
from repro.models import MoETransformer, moe_layer


@contextlib.contextmanager
def every_position_computed():
    forward = MoETransformer.forward

    def full_forward(self, input_ids, attention_mask=None, sample_ids=None, read=None):
        logits = forward(self, input_ids, attention_mask=attention_mask, sample_ids=sample_ids)
        return logits if read is None else take_rows(logits.reshape(-1, logits.shape[-1]), read)

    with mock.patch.object(moe_layer, "_live_rows", lambda *_: None), \
            mock.patch.object(MoETransformer, "forward", full_forward):
        yield
