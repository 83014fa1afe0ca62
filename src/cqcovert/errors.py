"""Exception types shared across the package."""


class CQCovertError(Exception):
    """Base class for package-specific failures."""


class ChannelFormatError(CQCovertError):
    """Channel file could not be parsed into consistently shaped matrices."""


class UnusableChannelError(CQCovertError):
    """Sanitization removed every informative symbol."""


class WrongRegimeError(CQCovertError):
    """The requested quantity is undefined in the channel's regime."""


class DimensionCapError(CQCovertError):
    """A tensor product or an oracle grid would exceed its size cap."""
