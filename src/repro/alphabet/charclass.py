"""Standard character classes (``\\d``, ``\\w``, ``\\s``).

The paper stresses that practical regexes use character classes over a
large symbolic alphabet (Unicode BMP).  We model the .NET/Unicode
flavour with a compact but genuinely multi-range table: e.g. ``\\d``
includes the ASCII digits plus several BMP digit blocks, so digit
predicates are *not* single intervals and exercise the symbolic
machinery the way real Unicode categories do.
"""

# Inclusive codepoint ranges.  ASCII core first, then representative BMP
# blocks (Arabic-Indic digits, Devanagari digits, fullwidth forms, Greek
# and Cyrillic letters, CJK punctuation spaces...).
DIGIT_RANGES = (
    (0x30, 0x39),        # 0-9
    (0x0660, 0x0669),    # Arabic-Indic
    (0x06F0, 0x06F9),    # Extended Arabic-Indic
    (0x0966, 0x096F),    # Devanagari
    (0x0E50, 0x0E59),    # Thai
    (0xFF10, 0xFF19),    # Fullwidth
)

_ASCII_WORD = (
    (0x30, 0x39),        # 0-9
    (0x41, 0x5A),        # A-Z
    (0x5F, 0x5F),        # _
    (0x61, 0x7A),        # a-z
)

_LETTER_BLOCKS = (
    (0xC0, 0xD6), (0xD8, 0xF6), (0xF8, 0xFF),   # Latin-1 letters
    (0x0100, 0x017F),    # Latin Extended-A
    (0x0386, 0x0386), (0x0388, 0x03CE),          # Greek incl. accented
    (0x0400, 0x045F),    # Cyrillic incl. extensions
    (0x05D0, 0x05EA),    # Hebrew
    (0x4E00, 0x9FFF),    # CJK Unified Ideographs
)

WORD_RANGES = _ASCII_WORD + _LETTER_BLOCKS + DIGIT_RANGES[1:]

SPACE_RANGES = (
    (0x09, 0x0D),        # tab..carriage return
    (0x20, 0x20),        # space
    (0x85, 0x85),        # next line
    (0xA0, 0xA0),        # no-break space
    (0x2000, 0x200A),    # en quad .. hair space
    (0x2028, 0x2029),    # line/paragraph separator
    (0x3000, 0x3000),    # ideographic space
)

def digit(algebra):
    """The predicate for ``\\d``."""
    return algebra.from_ranges(DIGIT_RANGES)


def word(algebra):
    """The predicate for ``\\w``."""
    return algebra.from_ranges(WORD_RANGES)


def space(algebra):
    """The predicate for ``\\s``."""
    return algebra.from_ranges(SPACE_RANGES)


def not_digit(algebra):
    """The predicate for ``\\D``."""
    return algebra.neg(digit(algebra))


def not_word(algebra):
    """The predicate for ``\\W``."""
    return algebra.neg(word(algebra))


def not_space(algebra):
    """The predicate for ``\\S``."""
    return algebra.neg(space(algebra))


#: The ``\\X`` class escapes the parser accepts, by letter.
ESCAPE_CLASSES = {
    "d": digit,
    "D": not_digit,
    "w": word,
    "W": not_word,
    "s": space,
    "S": not_space,
}


def case_fold(algebra, pred):
    """Close a predicate under ASCII case swapping.

    Used for ``(?i)`` patterns: every Latin letter in the predicate
    gains its other-case twin.  Works over any algebra via membership
    probes (52 checks), so no interval arithmetic is assumed.
    """
    extra = []
    for i in range(26):
        lower, upper = 0x61 + i, 0x41 + i
        if algebra.member(chr(lower), pred):
            extra.append((upper, upper))
        if algebra.member(chr(upper), pred):
            extra.append((lower, lower))
    if not extra:
        return pred
    return algebra.disj(pred, algebra.from_ranges(extra))
