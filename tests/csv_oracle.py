"""A row-at-a-time declarations CSV reader, the oracle for the columnar `load_csv`.

It reads rows with `csv.DictReader`, parses each into a tuple of field
values and checks it with the record rules one row at a time, raising the
same SchemaError messages. It returns the rows sorted by (date, id), each as
a tuple in `CSV_COLUMNS` order, as iterating Records gives `Row`s. Long rows
and repeated header columns are not errors here: `load_csv` rejects them on
purpose.
"""

from __future__ import annotations

import csv
import math
import re
from datetime import date as Date

from protobank.declarations import CSV_COLUMNS
from protobank.errors import SchemaError

_HS6_RE = re.compile(r"^\d{6}$")
_COUNTRY_RE = re.compile(r"^[A-Za-z]{2}$")
_MAX_PRICE_PER_KG = 1e100


def check_record(rid, quantity, gross_weight, hs6, country_code, cif_value, total_taxes, illicit, revenue):
    if not _HS6_RE.match(hs6):
        raise SchemaError(f"record {rid}: hs6 {hs6!r} is not 6 digits")
    if not _COUNTRY_RE.match(country_code):
        raise SchemaError(f"record {rid}: country_code {country_code!r} is not 2 letters")
    for name, v in (("quantity", quantity), ("gross_weight", gross_weight), ("cif_value", cif_value)):
        if not (math.isfinite(v) and v > 0):
            raise SchemaError(f"record {rid}: {name} must be positive, got {v}")
    price = cif_value / gross_weight
    if not price <= _MAX_PRICE_PER_KG:
        raise SchemaError(f"record {rid}: price_per_kg {price} over {_MAX_PRICE_PER_KG:g}")
    if not (math.isfinite(total_taxes) and total_taxes >= 0):
        raise SchemaError(f"record {rid}: total_taxes must be nonnegative")
    if revenue is not None:
        if not (math.isfinite(revenue) and revenue >= 0):
            raise SchemaError(f"record {rid}: revenue must be nonnegative")
        if illicit is False and revenue != 0:
            raise SchemaError(f"record {rid}: revenue {revenue} on a non-fraud")
        if revenue > 0 and illicit is not True:
            raise SchemaError(f"record {rid}: positive revenue requires illicit=1")


def parse_row(row: dict[str, str], line: int) -> tuple:
    try:
        illicit_raw = row["illicit"].strip()
        revenue_raw = row["revenue"].strip()
        if illicit_raw == "":
            illicit = None
            if revenue_raw not in ("", "0", "0.0"):
                raise SchemaError("revenue given for unlabeled row")
            revenue = None
        elif illicit_raw in ("0", "1"):
            illicit = illicit_raw == "1"
            revenue = float(revenue_raw) if revenue_raw else 0.0
        else:
            raise SchemaError("illicit must be 0, 1, or empty")
        values = (
            int(row["id"]),
            Date.fromisoformat(row["date"].strip()),
            float(row["quantity"]),
            float(row["gross_weight"]),
            row["hs6"].strip(),
            row["country_code"].strip(),
            float(row["cif_value"]),
            float(row["total_taxes"]),
            illicit,
            revenue,
        )
        rid, _, quantity, gross_weight, hs6, country_code, cif_value, total_taxes = values[:8]
        check_record(rid, quantity, gross_weight, hs6, country_code, cif_value, total_taxes, illicit, revenue)
        return values
    except SchemaError as e:
        raise SchemaError(f"line {line}: {e}") from None
    except (KeyError, ValueError) as e:
        raise SchemaError(f"line {line}: malformed row ({e})") from None


def _line_of_bad_utf8(path) -> int:
    with open(path, "rb") as fh:
        for number, line in enumerate(fh, 1):
            try:
                line.decode("utf-8")
            except UnicodeDecodeError:
                return number
    return 0


def load_rows(path) -> list[tuple]:
    """Every row of a declarations CSV as a field tuple, sorted by (date, id)."""
    rows = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        try:
            if reader.fieldnames is None:
                raise SchemaError(f"{path}: empty file")
            missing = [c for c in CSV_COLUMNS if c not in reader.fieldnames]
            if missing:
                raise SchemaError(f"{path}: header missing columns {missing}")
            for row in reader:
                try:
                    rows.append(parse_row(row, reader.line_num))
                except (AttributeError, TypeError):
                    if None not in row.values():  # DictReader's fill for a short row
                        raise
                    line = reader.line_num
                    raise SchemaError(f"{path}: line {line}: fewer fields than the header") from None
        except csv.Error as e:
            raise SchemaError(f"{path}: line {reader.reader.line_num}: {e}") from None
        except UnicodeDecodeError as e:
            line = _line_of_bad_utf8(path)
            raise SchemaError(f"{path}: line {line}: not UTF-8 ({e.reason})") from None
    ids = [r[0] for r in rows]
    if len(set(ids)) != len(ids):
        raise SchemaError("duplicate record ids")
    return sorted(rows, key=lambda r: (r[1], r[0]))
