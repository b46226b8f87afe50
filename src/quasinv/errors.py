"""Exception types shared across the toolkit."""


class QuasinvError(Exception):
    """Base class for all toolkit errors."""


class NotHermitian(QuasinvError):
    pass


class NotPositive(QuasinvError):
    pass


class FloorTooLarge(QuasinvError):
    pass


class SiteOutOfRange(QuasinvError):
    pass


class SizeMismatch(QuasinvError):
    pass


class GroupTooLarge(QuasinvError):
    pass


class GroupNotClosed(QuasinvError):
    pass


class MissingIdentityEntry(QuasinvError):
    pass


class SingularEntry(QuasinvError):
    pass


class SingularKappa(QuasinvError):
    pass


class SingularWeight(QuasinvError):
    pass


class SingularCDA(QuasinvError):
    pass


class NotHermitianZ(QuasinvError):
    pass


class NotStrongCocycle(QuasinvError):
    pass


class NotInCentralizer(QuasinvError):
    pass


class NotCommutingChain(QuasinvError):
    pass


class NotHomogeneous(QuasinvError):
    pass


class NotFaithful(QuasinvError):
    pass


class NotNested(QuasinvError):
    pass


class NotInvariantBase(QuasinvError):
    pass


class RangeError(QuasinvError):
    pass


class SupportTooLarge(QuasinvError):
    pass


class ConfigInvalid(QuasinvError):
    pass
