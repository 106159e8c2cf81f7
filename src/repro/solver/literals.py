"""Atom pool: bidirectional mapping between ground atoms and SAT variables.

Literals use the DIMACS convention: variable ``v >= 1``, literal ``+v`` for
the positive phase and ``-v`` for the negative phase.  Atom keys are
canonical strings of ground atoms ("share(tiktok, email_address)"), which
makes models directly readable.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.solver.euf import EQ_PREDICATE

Clause = tuple[int, ...]


@dataclass(slots=True)
class AtomPool:
    """Interns ground atoms and auxiliary (Tseitin) variables."""

    _by_key: dict[str, int] = field(default_factory=dict)
    _by_var: dict[int, str] = field(default_factory=dict)
    _next_var: int = 1
    #: Set once a named atom involving equality or a function term is
    #: interned: the EUF theory then has work to do (see
    #: :func:`repro.solver.theory.needs_theory`).
    has_theory_atoms: bool = False

    def variable_for(self, key: str) -> int:
        """SAT variable for the atom ``key``, allocating if new."""
        var = self._by_key.get(key)
        if var is None:
            var = self._next_var
            self._next_var += 1
            self._by_key[key] = var
            self._by_var[var] = key
            if not self.has_theory_atoms and not key.startswith("$"):
                # "name(args)": equality, or a parenthesis inside the
                # arguments, which only a function term puts there.
                name, _paren, args = key.partition("(")
                self.has_theory_atoms = name == EQ_PREDICATE or "(" in args
        return var

    def fresh(self, hint: str = "aux") -> int:
        """Allocate an auxiliary variable (Tseitin definition)."""
        var = self._next_var
        self._next_var += 1
        key = f"${hint}#{var}"
        self._by_key[key] = var
        self._by_var[var] = key
        return var

    def key_for(self, var: int) -> str:
        return self._by_var[var]

    def has_key(self, key: str) -> bool:
        return key in self._by_key

    @property
    def count(self) -> int:
        """Number of allocated variables."""
        return self._next_var - 1

    def named_atoms(self) -> dict[str, int]:
        """Non-auxiliary atoms only (keys not starting with ``$``)."""
        return {k: v for k, v in self._by_key.items() if not k.startswith("$")}
