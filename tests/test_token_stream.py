"""The token stream pinned case by case: kinds, text and spans of every token,
the position and text of every comment, and every lexer diagnostic, for
inputs that cover each token kind, each ``E-LEX`` code, tabs, CRLF line ends,
brackets across lines, directive raw lines, comments and a table of Unicode
characters at token start and inside an identifier.

The expected data in ``token_stream.json`` was written by the lexer itself;
a change that alters the stream on purpose rewrites it with

    PYTHONPATH=src python tests/test_token_stream.py

and names the cases that changed.
"""

import json
import os

import pytest

from soda import tokenize

_DATA = os.path.join(os.path.dirname(__file__), "token_stream.json")

_PROGRAM = """\
package demo.core
import other.Thing

// every token kind
class Pair [A] [B] extends Base [A]
  abstract
    fst : A
    snd : B

  @tailrec
  swap : Pair [B] [A] = Pair_ (snd) (fst)  // trailing comment
  f (x : Int) : Bool = x <= 10 and not (x >= 3) or x == 4 or x < 1 or x > 9
  g = lambda y --> y * 2 + 1 - 3 / 1
  h = if true then "s \\"q\\" \\\\ ok" else "t"
  m (x : Int) : Int =
    match x
      case 0 ==> 1
      case _ ==> 2
  t = this.fst
  u : A <: B = 1
  v : A >: B = 2
  w := false

end
"""

_UNICODE = ["é", "ß", "_", "²", "½", "٣", "Ⅻ"]

#: name -> source text. Names stay stable: the JSON is keyed by them.
CASES = {
    "empty": "",
    "program": _PROGRAM,
    "no_final_newline": "x = 1",
    "dedent_at_end_of_input": "class A\n  class B\n    x = 1",
    "operator_soup": "a-->b==>c:=d==e<=f>=g<:h>:i:j=k<l>m+n-o*p/q.r",
    "operator_prefixes": "x--y x->y a=>b ::: <:= >== -->> ==>= .. //",
    "brackets_across_lines": "x = f (1 +\n  2) [\n      3\n] (g (\n4)\n  )\ny = 3\n",
    "close_without_open": "x = )) (a\n)\n] y\n",
    "comments": "// top\n  // indented\nx = 1 // tail\ny = (2 // inside\n  )\n   //deep\n",
    "comment_only_line_in_class": "class A\n\n  // note\n  x = 1\nend\n",
    "directive_raw_lines": (
        "directive lean\n"
        "  theorem one : 1 = 1 := rfl\n"
        "\n"
        "    \t\n"
        "  class Foo -- not tokenized \"\n"
        "x = 1\n"
    ),
    "directive_in_class": (
        "class A\n"
        "  directive scala\n"
        "    def f = 1\n"
        "  x = 2\n"
        "  directive\n"
        "\n"
        "end\n"
    ),
    "directive_not_first_token": "x directive\n  y = 1\n",
    "directive_inside_brackets": "(\ndirective lean\n  y = 1\n)\n",
    "crlf": "class A\r\n  x = 1\r\n\r\n  y = \"a\"\r\nend\r\n",
    "lone_carriage_return": "x = 1\r y\r\r\n",
    "tab_in_indentation": "class A\n\tx : Int = 1\n \t y = 2\n\t\tz = 3\nend\n",
    "tab_between_tokens": "x\t=\t1\t\ny =  \t 2   \n",
    "blank_lines_with_blanks": "x = 1\n   \n\t\n\ny = 2\n",
    "inconsistent_dedent": "class A\n    x = 1\n  y = 2\nz = 3\n",
    "unterminated_string": 'bad = "runs off\nnext = 1\n',
    "string_escapes": 'a = "ok \\" \\\\" b = "bad \\n \\t" c = "end \\\nd = "\\',
    "string_with_odd_characters": 'a = "é // ² \t   @ #"\n',
    "stray_at": "@ x @\n@@y @1 @_ @é @² a@b\n",
    "annotations": "@tailrec\n@a_1 loop = 1\n",
    "illegal_characters": "x = 1 # 2 $ ! ? ; , ' ` ~ % ^ & | { } \\\n",
    "illegal_blanks": "x\x0c= 1\x0b y \x00 z w\n",
    "unicode_blanks_and_separators": "x = 1 // a\u2028b\ny\u00a0= \"\u2028\"\n",
    "words": "_ __ x_ _y a1 A1b class lambda match widget end iffy if_ not notx",
    "integers": "0 007 120 1a 12_3 99999999999999999999999",
    "reserved_words": (
        "lambda if then else match case class extends end abstract this "
        "subtype supertype package import directive not and or true false"
    ),
    "integer_then_non_decimal_digit": "x : Int = 1²",
    "non_decimal_digit_literal": "x : Int = ²",
}
for _i, _ch in enumerate(_UNICODE):
    CASES[f"unicode_{_i}_at_start"] = f"{_ch} {_ch}q {_ch}1\n"
    CASES[f"unicode_{_i}_inside"] = f"a{_ch} a{_ch}b 1{_ch} _{_ch}\n"


def _span(s):
    return [s.file, s.line_start, s.col_start, s.line_end, s.col_end]


def lex_record(source):
    res = tokenize(source, "pin.soda")
    return {
        "tokens": [[t.kind, t.text, _span(t.span)] for t in res.tokens],
        "comments": [list(c) for c in res.comments],
        "diagnostics": [[d.severity, d.code, d.message, _span(d.span)] for d in res.diagnostics],
    }


def _expected():
    with open(_DATA, encoding="utf-8") as f:
        return json.load(f)


def test_every_case_is_pinned():
    assert sorted(_expected()) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_token_stream_is_pinned(name):
    expected = _expected()[name]
    assert expected["source"] == CASES[name]
    got = lex_record(CASES[name])
    assert got["diagnostics"] == expected["diagnostics"]
    assert got["tokens"] == expected["tokens"]
    assert got["comments"] == expected["comments"]


if __name__ == "__main__":
    data = {name: {"source": src, **lex_record(src)} for name, src in sorted(CASES.items())}
    # One token, comment or diagnostic a line, so that a change shows as a
    # small diff.
    out = []
    for name, rec in data.items():
        rows = {key: ",".join("\n   " + json.dumps(x, ensure_ascii=False) for x in rec[key])
                for key in ("tokens", "comments", "diagnostics")}
        out.append(f" {json.dumps(name)}: {{\"source\": {json.dumps(rec['source'])},\n"
                   f"  \"tokens\": [{rows['tokens']}],\n  \"comments\": [{rows['comments']}],\n"
                   f"  \"diagnostics\": [{rows['diagnostics']}]}}")
    with open(_DATA, "w", encoding="utf-8") as f:
        f.write("{\n" + ",\n".join(out) + "\n}\n")
