"""Exception types shared across the package.  The CLI exits 2 on a
PintbasisError (bad or unsupported input) and 3 on an InconsistentError (a
program fault)."""


class PintbasisError(Exception):
    pass


class ParseError(PintbasisError):
    """Raised on malformed polynomial input; carries the offending position."""

    def __init__(self, message, position):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class NotIrreducibleError(PintbasisError):
    pass


class NotRegularError(PintbasisError):
    """A residual polynomial failed separability; carries the witness: the
    multiple irreducible factor, a polynomial over the residue field of phi."""

    def __init__(self, phi, side, field, factor, multiplicity):
        super().__init__(
            f"inseparable residual polynomial on side of slope {side.slope} "
            f"for phi={phi.render()}; multiple factor {field.render(factor)} "
            f"with multiplicity {multiplicity}"
        )
        self.phi = phi
        self.side = side
        self.field = field
        self.factor = factor
        self.multiplicity = multiplicity


class RankDeficientError(PintbasisError):
    pass


class InconsistentError(PintbasisError):
    """An internal invariant that should hold for every valid input failed,
    such as a hypothesis of the second-order step on a phi a table chose."""


class IterationPreconditionError(InconsistentError):
    """Starting integer matches none of the admissible valuation patterns.
    The quartic route starts the iteration only from an s its case chose,
    so there this is a program fault."""
