"""Exception taxonomy.

Every error carries a stable ``code`` string (the CLI prints it and maps
move-application errors to exit status 3, every other error to 2).
"""


class FenstringError(Exception):
    """Base class for all errors raised by this package."""

    code = "Error"


class BadOptionError(FenstringError, ValueError):
    """An ApplyOptions field or option argument holds a value outside its set."""

    code = "BadOption"


class FenSyntaxError(FenstringError, ValueError):
    """Malformed input text: FEN, move, segment or legacy notation."""

    code = "Syntax"


class SegmentCountError(FenSyntaxError):
    code = "SegmentCount"


class BadSegmentError(FenSyntaxError):
    """A rank segment breaks the segment grammar; the subclass names how."""

    code = "BadSegment"


class RankWidthError(BadSegmentError):
    code = "RankWidth"


class BadPieceLetterError(BadSegmentError):
    code = "BadPieceLetter"


class BadSideCharError(FenSyntaxError):
    code = "BadSideChar"


class BadCastlingFieldError(FenSyntaxError):
    code = "BadCastlingField"


class BadEnPassantFieldError(FenSyntaxError):
    code = "BadEnPassantField"


class BadClockError(FenSyntaxError):
    code = "BadClock"


class AdjacentDigitsError(BadSegmentError):
    code = "AdjacentDigits"


class BadExpandedRankError(FenSyntaxError):
    code = "BadExpandedRank"


class OutOfRangeError(FenSyntaxError):
    code = "OutOfRange"


class BadMoveSyntaxError(FenSyntaxError):
    code = "BadMoveSyntax"


class BadSquareError(FenSyntaxError):
    code = "BadSquare"


class BadPromotionPieceError(FenSyntaxError):
    code = "BadPromotionPiece"


class BadTokenError(FenSyntaxError):
    code = "BadToken"


class GroupCountError(FenSyntaxError):
    code = "GroupCount"


class ValidationError(FenSyntaxError):
    """Strict-mode check failed (king count, pawn ranks, ep consistency)."""

    code = "Validation"


class MoveError(FenstringError):
    """A well-formed move cannot be applied to the given position."""

    code = "Move"


class EmptyOriginError(MoveError):
    code = "EmptyOrigin"


class WrongColorError(MoveError):
    code = "WrongColor"


class MissingPromotionError(MoveError):
    code = "MissingPromotion"


class BadCastleError(MoveError):
    code = "BadCastle"


class FriendlyCaptureError(MoveError):
    code = "FriendlyCapture"


class NoPiecesError(MoveError):
    code = "NoPieces"
