"""Transformation-pass infrastructure."""

from __future__ import annotations

import abc
from typing import Iterable, List

from ..workloads.ir import Loop, Node, Program


class Transform(abc.ABC):
    """A pure IR-to-IR pass.

    Subclasses implement :meth:`apply_to`, mutating the *cloned* tree
    they are given; :meth:`apply` handles cloning so callers can reuse
    the input program.
    """

    #: Short name used in reports and the Figure 6 breakdown.
    name: str = "transform"

    def apply(self, program: Program) -> Program:
        """Return a transformed copy of ``program``."""
        copy = program.clone()
        self.apply_to(copy)
        return copy

    @abc.abstractmethod
    def apply_to(self, program: Program) -> None:
        """Transform ``program`` in place (already cloned by the caller)."""

    @staticmethod
    def innermost_loops(program: Program) -> List[Loop]:
        """All innermost loops of the program, in preorder."""
        return [lp for lp in program.loops() if lp.is_innermost]

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"

    def __eq__(self, other: object) -> bool:
        # By value, so equal pass lists share one memoised program.
        return type(self) is type(other) and vars(self) == vars(other)

    def __hash__(self) -> int:
        # Parameters may be unhashable (TileNest holds a list).
        return hash(type(self))


def apply_all(program: Program, transforms: Iterable[Transform]) -> Program:
    """Apply ``transforms`` in order, returning the final program.

    The input program is never mutated; each pass clones its input.
    """
    current = program
    for transform in transforms:
        current = transform.apply(current)
    return current
