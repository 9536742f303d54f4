"""Exception types raised by the mesh, assembly and solver layers."""


class DegenerateElementError(ValueError):
    """A collapsed cell (zero or negative width or height): its Jacobian is not positive."""


class AssemblyError(RuntimeError):
    """An assembled velocity block failed a structural or definiteness check."""


class SingularSystemError(RuntimeError):
    """A saddle-point or pressure system is singular (e.g. closed no-flow box)."""


class ConfigurationError(ValueError):
    """Inconsistent run configuration, e.g. an unlabeled boundary edge."""
