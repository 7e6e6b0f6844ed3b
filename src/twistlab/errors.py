"""Exception types shared across twistlab modules."""


class TwistlabError(Exception):
    """Base class for all twistlab errors."""


class SchemaError(TwistlabError):
    """Malformed or inconsistent input data."""


class BudgetExceeded(SchemaError):
    """An input would expand past a fixed size budget."""


class DimensionMismatch(TwistlabError):
    pass


class ZeroCharacter(TwistlabError):
    """The trivial character defines a disconnected double cover."""


class NotPositive(TwistlabError):
    """Operation requires a positive twist word."""


class NotARelation(TwistlabError):
    """Word does not evaluate to the identity homologically."""


class NotCentral(TwistlabError):
    """Metaplectic evaluation is not a central element (I, 4n)."""

    def __init__(self, residual):
        super().__init__(f"not central: {residual}")
        self.residual = residual


class InvalidElement(TwistlabError):
    """Pair (matrix, n) fails the metaplectic membership predicate."""


class GenusMismatch(TwistlabError):
    pass


class MissingCommutatorData(TwistlabError):
    """Higher-genus base verification needs the commutator factor data."""


class EmptyRelators(TwistlabError):
    pass
