"""Typed identifiers for nodes, applications, transactions and blocks.

The library passes many identifiers around (node names, application names,
transaction ids, block sequence numbers).  Using thin ``NewType`` wrappers over
``str``/``int`` keeps signatures self-documenting without runtime overhead,
while the helper functions below centralise how identifiers are minted so that
runs are deterministic and reproducible.
"""

from __future__ import annotations

import itertools
from typing import Iterator, NewType

NodeId = NewType("NodeId", str)
ApplicationId = NewType("ApplicationId", str)
TransactionId = NewType("TransactionId", str)
BlockId = NewType("BlockId", int)


class IdSequence:
    """A deterministic, prefix-scoped sequence of string identifiers.

    >>> seq = IdSequence("tx")
    >>> next(seq), next(seq)
    ('tx-0', 'tx-1')
    """

    def __init__(self, prefix: str, start: int = 0) -> None:
        self._prefix = prefix
        self._counter = itertools.count(start)

    def __iter__(self) -> Iterator[str]:
        return self

    def __next__(self) -> str:
        return f"{self._prefix}-{next(self._counter)}"

    def peek_prefix(self) -> str:
        """Return the prefix used for generated identifiers."""
        return self._prefix


def orderer_id(index: int) -> NodeId:
    """Canonical name for the ``index``-th orderer node."""
    return NodeId(f"orderer-{index}")


def executor_id(index: int) -> NodeId:
    """Canonical name for the ``index``-th executor node."""
    return NodeId(f"executor-{index}")


def client_id(index: int) -> NodeId:
    """Canonical name for the ``index``-th client."""
    return NodeId(f"client-{index}")


def application_id(index: int) -> ApplicationId:
    """Canonical name for the ``index``-th application."""
    return ApplicationId(f"app-{index}")
