"""Every extcalc module stays within the parser's first token array.

Without a bytecode cache, compiling the largest module sets the peak RSS
of `import extcalc.cli`.  Python 3.11's parser keeps every token of a
module in one array that doubles past 8,192 tokens and preallocates the
new half, about 0.65 MB more at the peak; a module crossing that line
raised every benchmark workload's peak RSS by 0.3 to 0.5 MB.  The count
here skips what the parser never stores (comments, blank-line NL tokens,
the ENCODING marker) and keeps ENDMARKER, so it is the parser's count.
"""

import io
import tokenize
from pathlib import Path

import pytest

import extcalc

PARSER_TOKEN_LIMIT = 8192
MODULES = sorted(Path(extcalc.__file__).parent.rglob("*.py"))


def parser_tokens(source: str) -> int:
    skip = {tokenize.COMMENT, tokenize.NL, tokenize.ENCODING}
    return sum(tok.type not in skip for tok in tokenize.tokenize(
        io.BytesIO(source.encode("utf-8")).readline))


def test_count_is_calibrated_on_assignment_lines():
    # traced with tracemalloc around compile on Python 3.11.7, the peak
    # jumps between 2,047 and 2,048 lines of `x=1` (four tokens a line
    # plus ENDMARKER), and not at 8,192 tokens (2,047 lines and `-x`)
    assert parser_tokens("x=1\n" * 2047 + "-x\n") == PARSER_TOKEN_LIMIT
    assert parser_tokens("x=1\n" * 2048) == PARSER_TOKEN_LIMIT + 1
    assert parser_tokens("# note\n\nx=1\n") == 5


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_stays_under_the_doubling(path):
    assert parser_tokens(path.read_text(encoding="utf-8")) \
        <= PARSER_TOKEN_LIMIT
