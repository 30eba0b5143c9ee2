"""The error a command raises for an argument that breaks one of its rules."""


class UsageError(ValueError):
    """Bad command argument or config; the CLI prints it and exits 2.

    Raised before any work starts, so it never stands for a failed check."""
