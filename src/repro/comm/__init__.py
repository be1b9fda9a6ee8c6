"""Gluon-style communication substrate: proxy synchronization with
structural-invariant and update-driven optimizations."""

from repro.comm.bitset import Bitset
from repro.comm.buffers import (
    Message,
    MessageBatch,
    MessageHeader,
    SendBatch,
    batch_arrays,
)
from repro.comm.gluon import CommConfig, FieldSpec, GluonComm
from repro.comm.hier import HostAggregate, group_cross_host
from repro.comm.router import BatchLegTimes, Router, StepNetwork

__all__ = [
    "HostAggregate",
    "group_cross_host",
    "StepNetwork",
    "Bitset",
    "Message",
    "MessageBatch",
    "MessageHeader",
    "SendBatch",
    "batch_arrays",
    "CommConfig",
    "FieldSpec",
    "GluonComm",
    "Router",
    "BatchLegTimes",
]
