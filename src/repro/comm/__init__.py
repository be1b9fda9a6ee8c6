"""Gluon-style communication substrate: proxy synchronization with
structural-invariant and update-driven optimizations."""

from repro.comm.bitset import Bitset
from repro.comm.buffers import (
    Delivery,
    Message,
    MessageBatch,
    MessageHeader,
    SendBatch,
    batch_arrays,
)
from repro.comm.gluon import CommConfig, FieldSpec, FieldViews, GluonComm
from repro.comm.hier import HostAggregate, group_cross_host
from repro.comm.router import BatchLegTimes, Router, StepNetwork

__all__ = [
    "HostAggregate",
    "group_cross_host",
    "StepNetwork",
    "Bitset",
    "Delivery",
    "Message",
    "MessageBatch",
    "MessageHeader",
    "SendBatch",
    "batch_arrays",
    "CommConfig",
    "FieldSpec",
    "FieldViews",
    "GluonComm",
    "Router",
    "BatchLegTimes",
]
