"""Line-oriented text format for monomial algebras.

Directives, one per line: ``field Q`` or ``field F <p>``; ``vertex <name>``
(order defines ids); ``arrow <name> <src> <tgt>``; ``rel <arrow> ...``
listing arrows in traversal order (first-traversed first, which is the
reverse of the right-to-left product notation used in rendered output).
``#`` starts a comment; :func:`tokens` holds the token rule of the README's
"Algebra files" section.  Parsing is total with positioned diagnostics and
``parse(print_algebra(A))`` reproduces ``A``.  Lines end at CR LF, CR or LF
alone, as in a text-mode file, so a form feed moves no line number.
"""

from __future__ import annotations

from .algebra import MonomialAlgebra, build
from .errors import CompositionError, DimensionalityError, MinimalityError, ParseError
from .fields import GF, QQ, FieldSpec
from .quiver import Quiver


def tokens(line: str, lineno: int = 1) -> list:
    """(token, 1-based column) pairs of ``line``; an unprintable token is a ParseError."""
    code = line.split("#", 1)[0]
    words = code.split()
    out, end = [], 0
    for word in words:
        end = code.index(word, end) + len(word)
        out.append((word, end - len(word) + 1))
    if not "".join(words).isprintable():
        word, col = next(t for t in out if not t[0].isprintable())
        raise ParseError(f"unprintable token {word!r}", lineno, col)
    return out


def parse(text: str) -> MonomialAlgebra:
    field: FieldSpec = None
    vertex_ids: dict = {}  # name -> id, in file order
    arrows: list = []
    arrow_ids: dict = {}
    arrow_at: list = []  # (line, column) of each arrow directive
    rel_lines: list = []

    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")  # \f ends no line
    for lineno, line in enumerate(lines, start=1):
        toks = tokens(line, lineno)
        if not toks:
            continue
        (head, col0), *args = toks
        if head == "field":
            if field is not None:
                raise ParseError("duplicate field directive", lineno, col0)
            if len(args) == 1 and args[0][0] == "Q":
                field = QQ
            elif len(args) == 2 and args[0][0] == "F":
                tok, col = args[1]
                try:
                    field = GF(int(tok))
                except ValueError as err:
                    raise ParseError(str(err), lineno, col) from None
            else:
                raise ParseError("expected 'field Q' or 'field F <p>'", lineno, col0)
        elif head == "vertex":
            if len(args) != 1:
                raise ParseError("expected 'vertex <name>'", lineno, col0)
            name, col = args[0]
            if name in vertex_ids:
                raise ParseError(f"duplicate vertex name {name}", lineno, col)
            vertex_ids[name] = len(vertex_ids)
        elif head == "arrow":
            if len(args) != 3:
                raise ParseError("expected 'arrow <name> <src> <tgt>'", lineno, col0)
            (name, ncol), (src, scol), (tgt, tcol) = args
            if name in arrow_ids:
                raise ParseError(f"duplicate arrow name {name}", lineno, ncol)
            if src not in vertex_ids:
                raise ParseError(f"unknown vertex {src}", lineno, scol)
            if tgt not in vertex_ids:
                raise ParseError(f"unknown vertex {tgt}", lineno, tcol)
            arrow_ids[name] = len(arrows)
            arrows.append((name, vertex_ids[src], vertex_ids[tgt]))
            arrow_at.append((lineno, col0))
        elif head == "rel":
            if len(args) < 2:
                raise ParseError(
                    "a relation needs at least two arrows (admissibility)", lineno, col0
                )
            rel_lines.append((lineno, col0, args))
        else:
            raise ParseError(f"unknown directive {head}", lineno, col0)

    quiver = Quiver(tuple(vertex_ids), tuple(arrows))
    relations = []
    rel_at: dict = {}  # arrow word -> (line, column, text) of its first rel line
    for lineno, col0, args in rel_lines:
        word = []
        for name, col in args:
            if name not in arrow_ids:
                raise ParseError(f"unknown arrow {name}", lineno, col)
            word.append(arrow_ids[name])
        try:
            relations.append(quiver.path(word))
        except CompositionError as err:
            raise ParseError(str(err), lineno, col0) from None
        rel_at.setdefault(tuple(word), (lineno, col0, "rel " + " ".join(n for n, _ in args)))
    try:
        return build(quiver, relations, field or QQ)
    except MinimalityError as err:
        lineno, col0, container = rel_at[err.container.arrows]
        inner_line, _, contained = rel_at[err.contained.arrows]
        raise ParseError(
            f"relation set is not minimal: '{contained}' (line {inner_line}) "
            f"is a proper subpath of '{container}'",
            lineno,
            col0,
        ) from None
    except DimensionalityError as err:
        # reported at the first arrow of the witness cycle
        raise ParseError(str(err), *arrow_at[err.cycle[0]]) from None


def print_algebra(A: MonomialAlgebra) -> str:
    lines = [f"field {'Q' if A.field.char == 0 else f'F {A.field.char}'}"]
    for name in A.quiver.vertex_names:
        lines.append(f"vertex {name}")
    for name, s, t in A.quiver.arrows:
        lines.append(f"arrow {name} {A.quiver.vertex_names[s]} {A.quiver.vertex_names[t]}")
    for r in A.relations:
        lines.append("rel " + " ".join(A.quiver.arrow_name(a) for a in r.arrows))
    return "\n".join(lines) + "\n"
