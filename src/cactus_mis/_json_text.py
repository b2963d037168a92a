"""JSON text as `json.dumps(value, indent=2, sort_keys=True) + "\\n"` writes it.

Every JSON output the command line prints is written this way: the
verification report, `census --format json`, `estimate` and `build --format
json`. With `indent` set, `json.dumps` runs the pure-Python encoder, a chain
of generators that yields every bracket, key and separator as a chunk of its
own; `_write_json` appends one string per dict item or list element instead
(about half the time on the verification report). The writer has a module
of its own because, where no bytecode is cached, every start compiles the
package, and compiling a module takes memory that grows with the module: in
`verify` the writer raised a whole verify run's peak memory.
"""

from __future__ import annotations

from json.encoder import encode_basestring_ascii as _encode_str


def json_text(value) -> str:
    """`json.dumps(value, indent=2, sort_keys=True) + "\\n"`, written directly.

    A dict key that is not a string raises TypeError (`json.dumps` would
    convert it), as does a value JSON has no type for.
    """
    out: list[str] = []
    _write_json(value, "\n", out)
    out.append("\n")
    return "".join(out)


_INF = float("inf")


def _json_float(value: float) -> str:
    if value != value:
        return "NaN"
    if value == _INF:
        return "Infinity"
    if value == -_INF:
        return "-Infinity"
    return float.__repr__(value)


# JSON text of a scalar of exactly this type, spelled as `json.dumps` spells it
_SCALAR_JSON = {
    str: _encode_str,
    int: int.__repr__,
    float: _json_float,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): lambda _: "null",
}


def _write_json(value, nl: str, out: list[str]) -> None:
    """Append `value`'s JSON to `out`, its lines after the first indented as `nl`."""
    if isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        inner = nl + "  "
        sep = "{" + inner
        for key, item in sorted(value.items()):
            head = sep + _encode_str(key) + ": "  # TypeError unless key is a str
            to_text = _SCALAR_JSON.get(item.__class__)
            if to_text is None:  # a container, or a subclass of a scalar type
                out.append(head)
                _write_json(item, inner, out)
            else:
                out.append(head + to_text(item))
            sep = "," + inner
        out.append(nl + "}")
    elif isinstance(value, (list, tuple)):
        if not value:
            out.append("[]")
            return
        inner = nl + "  "
        sep = "[" + inner
        for item in value:
            to_text = _SCALAR_JSON.get(item.__class__)
            if to_text is None:
                out.append(sep)
                _write_json(item, inner, out)
            else:
                out.append(sep + to_text(item))
            sep = "," + inner
        out.append(nl + "]")
    else:
        # a scalar at the top level, or of a subclass (bool before int: True is an int)
        for cls in (str, bool, int, float, type(None)):
            if isinstance(value, cls):
                out.append(_SCALAR_JSON[cls](value))
                return
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")
