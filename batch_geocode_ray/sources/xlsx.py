"""Minimal Excel (.xlsx) writer on the stdlib only.

The reference writes .xlsx output (utilities.py:26-28,
safe_save_vet_output :68-82). This sandbox has no openpyxl, so the
engine emits the needed OOXML SpreadsheetML subset directly — an .xlsx
file is a zip of XML parts: [Content_Types].xml, _rels/.rels,
xl/workbook.xml, xl/_rels/workbook.xml.rels, xl/styles.xml and one
xl/worksheets/sheet1.xml using inline strings (``t="inlineStr"``) and
plain numeric cells — the minimal conforming document.

The round trip (write -> read) is pinned in tests, through a reader in
``tests/reference.py``.
"""

from __future__ import annotations

import re
import zipfile
from xml.sax.saxutils import escape

import pyarrow as pa

_NS_MAIN = "http://schemas.openxmlformats.org/spreadsheetml/2006/main"
_NS_REL_DOC = ("http://schemas.openxmlformats.org/officeDocument/2006/"
               "relationships")
_NS_REL_PKG = "http://schemas.openxmlformats.org/package/2006/relationships"


# ---------------------------------------------------------------------------
# writer
# ---------------------------------------------------------------------------

_CONTENT_TYPES = """<?xml version="1.0" encoding="UTF-8" standalone="yes"?>
<Types xmlns="http://schemas.openxmlformats.org/package/2006/content-types">
<Default Extension="rels" ContentType="application/vnd.openxmlformats-package.relationships+xml"/>
<Default Extension="xml" ContentType="application/xml"/>
<Override PartName="/xl/workbook.xml" ContentType="application/vnd.openxmlformats-officedocument.spreadsheetml.sheet.main+xml"/>
<Override PartName="/xl/worksheets/sheet1.xml" ContentType="application/vnd.openxmlformats-officedocument.spreadsheetml.worksheet+xml"/>
<Override PartName="/xl/styles.xml" ContentType="application/vnd.openxmlformats-officedocument.spreadsheetml.styles+xml"/>
</Types>"""

_ROOT_RELS = f"""<?xml version="1.0" encoding="UTF-8" standalone="yes"?>
<Relationships xmlns="{_NS_REL_PKG}">
<Relationship Id="rId1" Type="{_NS_REL_DOC}/officeDocument" Target="xl/workbook.xml"/>
</Relationships>"""

_WORKBOOK = f"""<?xml version="1.0" encoding="UTF-8" standalone="yes"?>
<workbook xmlns="{_NS_MAIN}" xmlns:r="{_NS_REL_DOC}">
<sheets><sheet name="Sheet1" sheetId="1" r:id="rId1"/></sheets>
</workbook>"""

_WORKBOOK_RELS = f"""<?xml version="1.0" encoding="UTF-8" standalone="yes"?>
<Relationships xmlns="{_NS_REL_PKG}">
<Relationship Id="rId1" Type="{_NS_REL_DOC}/worksheet" Target="worksheets/sheet1.xml"/>
</Relationships>"""

_STYLES = f"""<?xml version="1.0" encoding="UTF-8" standalone="yes"?>
<styleSheet xmlns="{_NS_MAIN}">
<fonts count="1"><font><sz val="11"/><name val="Calibri"/></font></fonts>
<fills count="1"><fill><patternFill patternType="none"/></fill></fills>
<borders count="1"><border/></borders>
<cellStyleXfs count="1"><xf/></cellStyleXfs>
<cellXfs count="1"><xf xfId="0"/></cellXfs>
</styleSheet>"""


_INVALID_XML = re.compile(
    "[\x00-\x08\x0b\x0c\x0e-\x1f\x7f￾￿]")


def _cell_text(v) -> str:
    """XML 1.0 cannot represent most control characters at all (not
    even escaped); replace them with U+FFFD like other writers
    sanitize, so any string value round-trips to a parseable file.
    Carriage returns go out as numeric references — XML parsers
    normalize literal \\r to \\n on input."""
    return escape(_INVALID_XML.sub("�", str(v)), {"\r": "&#13;"})


def _col_letters(idx: int) -> str:
    """0-based column index -> A1-style letters."""
    out = ""
    idx += 1
    while idx:
        idx, rem = divmod(idx - 1, 26)
        out = chr(ord("A") + rem) + out
    return out


def _fmt_number(v) -> str:
    f = float(v)
    if f == int(f) and abs(f) < 1e15:
        return str(int(f))
    return repr(f)


def write_xlsx(table: pa.Table, path_or_buf) -> None:
    """Write a pyarrow Table as Sheet1 of a minimal .xlsx (header row +
    data rows; numbers stay numeric cells, everything else becomes an
    inline string; nulls become empty cells)."""
    cols = table.column_names
    numeric = [pa.types.is_integer(table[c].type) or
               pa.types.is_floating(table[c].type) for c in cols]
    pylists = [table[c].to_pylist() for c in cols]

    rows_xml = []
    header_cells = "".join(
        f'<c r="{_col_letters(j)}1" t="inlineStr"><is><t>{_cell_text(c)}'
        f"</t></is></c>" for j, c in enumerate(cols))
    rows_xml.append(f'<row r="1">{header_cells}</row>')
    for i in range(table.num_rows):
        cells = []
        for j, c in enumerate(cols):
            v = pylists[j][i]
            if v is None:
                continue
            ref = f"{_col_letters(j)}{i + 2}"
            if numeric[j] and not (isinstance(v, float) and v != v):
                cells.append(f'<c r="{ref}"><v>{_fmt_number(v)}</v></c>')
            elif numeric[j]:
                continue  # NaN -> empty cell, like a null
            else:
                cells.append(f'<c r="{ref}" t="inlineStr"><is><t>'
                             f"{_cell_text(v)}</t></is></c>")
        rows_xml.append(f'<row r="{i + 2}">{"".join(cells)}</row>')

    sheet = (f'<?xml version="1.0" encoding="UTF-8" standalone="yes"?>'
             f'<worksheet xmlns="{_NS_MAIN}"><sheetData>'
             f'{"".join(rows_xml)}</sheetData></worksheet>')

    buf = (path_or_buf if hasattr(path_or_buf, "write")
           else open(path_or_buf, "wb"))
    try:
        with zipfile.ZipFile(buf, "w", zipfile.ZIP_DEFLATED) as z:
            z.writestr("[Content_Types].xml", _CONTENT_TYPES)
            z.writestr("_rels/.rels", _ROOT_RELS)
            z.writestr("xl/workbook.xml", _WORKBOOK)
            z.writestr("xl/_rels/workbook.xml.rels", _WORKBOOK_RELS)
            z.writestr("xl/styles.xml", _STYLES)
            z.writestr("xl/worksheets/sheet1.xml", sheet)
    finally:
        if not hasattr(path_or_buf, "write"):
            buf.close()

