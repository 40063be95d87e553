"""Exception types shared across the package."""


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
    """An internal invariant that should hold for every valid input failed."""


class NonIntegerSlopeError(PintbasisError):
    """The irregular side has fractional slope; the shift iteration cannot apply."""


class IterationPreconditionError(PintbasisError):
    """Starting integer matches none of the admissible valuation patterns."""


class HypothesisViolatedError(PintbasisError):
    pass


class NotSecondOrderRegularError(PintbasisError):
    pass


class NoRowError(PintbasisError):
    """No dispatch-table row matches the given parameters; surfaced as a
    coverage diagnostic rather than guessed around."""
