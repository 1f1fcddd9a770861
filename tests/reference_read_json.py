"""Text-mode reference for `model.read_json`: the file is opened as UTF-8
text with universal newlines and handed to json.load.  The byte reader
must give the same value, or raise the same exception with the same
text, on every file of FILES."""

import json


def read_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}") from exc


# file name -> bytes; None makes a directory, and a missing name no file
FILES = {
    "crlf": b'{\r\n  "q": 2,\r\n  "m": 1,\r\n  "receivers": [{"knows": [], "wants": [1]}]\r\n}\r\n',
    "lone-cr-error-on-line-3": b'{\r  "q": 2,\r  "m": 1 x\r}\r',
    "mixed-newlines-error-on-line-4": b'{\r\n  "q": 2,\r  "m":\r\n\r,\n}',
    "invalid-utf8": b'{"q": 2, "m": 1, "receivers": "\xff"}',
    "utf8-bom": b'\xef\xbb\xbf{"q": 2, "m": 1, "receivers": [{"knows": [], "wants": [1]}]}',
    "directory": None,
}
NAMES = sorted(FILES) + ["missing"]


def make(folder, name):
    """The path of file `name` of FILES, made in `folder`."""
    path = folder / name
    if name in FILES:
        if FILES[name] is None:
            path.mkdir()
        else:
            path.write_bytes(FILES[name])
    return path
