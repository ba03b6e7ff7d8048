"""Records built from rows, for tests that write their inputs one declaration at a time."""

from __future__ import annotations

from protobank.declarations import CSV_COLUMNS, Records, _check


def records_of(rows) -> Records:
    """The Records of `rows` (`Row`s, or tuples in CSV_COLUMNS order), with
    pools in first-use order, checked by the record rules."""
    columns = list(zip(*rows)) or [()] * len(CSV_COLUMNS)
    ids, dates, quantity, weight, hs6, countries, cif, taxes, illicit, revenue = columns
    pools = [tuple(dict.fromkeys(values)) for values in (hs6, countries)]
    records = Records(
        {
            "ids": ids,
            "days": [d.toordinal() for d in dates],
            "quantity": quantity,
            "gross_weight": weight,
            "hs6": list(map(pools[0].index, hs6)),
            "country_code": list(map(pools[1].index, countries)),
            "cif_value": cif,
            "total_taxes": taxes,
            "illicit": [-1 if label is None else label for label in illicit],
            "revenue": [value or 0.0 for value in revenue],
        },
        *pools,
    )
    _check(records)
    return records
