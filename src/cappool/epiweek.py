"""Epidemiological week arithmetic on a frozen 52/53-week calendar.

Week counts per year are shipped as a data file (``data/epiweeks.csv``)
rather than derived from locale-dependent date rules at run time.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from functools import lru_cache
from importlib import resources

__all__ = [
    "Epiweek",
    "weeks_in_year",
    "season_of",
    "season_weeks",
    "season_week",
    "season_length",
    "SEASON_START_WEEK",
    "SEASON_END_WEEK",
]

SEASON_START_WEEK = 40
SEASON_END_WEEK = 20


@lru_cache(maxsize=1)
def _calendar() -> dict[int, int]:
    text = resources.files("cappool").joinpath("data/epiweeks.csv").read_text()
    table = {}
    for row in csv.DictReader(text.splitlines()):
        table[int(row["year"])] = int(row["weeks"])
    return table


def weeks_in_year(year: int) -> int:
    """Number of epidemiological weeks (52 or 53) in a calendar year."""
    try:
        return _calendar()[year]
    except KeyError:
        raise ValueError(f"year {year} outside the shipped epiweek calendar") from None


@dataclass(frozen=True, order=True)
class Epiweek:
    """A calendar year plus epidemiological week number.

    Ordering is lexicographic on (year, week), which matches chronology.
    """

    year: int
    week: int

    def __post_init__(self) -> None:
        if not 1 <= self.week <= weeks_in_year(self.year):
            raise ValueError(f"week {self.week} invalid for year {self.year}")

    @classmethod
    def from_int(cls, yyyyww: int) -> "Epiweek":
        return cls(yyyyww // 100, yyyyww % 100)

    @classmethod
    def parse(cls, token: str) -> "Epiweek":
        token = token.strip()
        if len(token) != 6 or not token.isdigit():
            raise ValueError(f"malformed epiweek {token!r}; expected YYYYWW")
        return cls.from_int(int(token))

    def to_int(self) -> int:
        return self.year * 100 + self.week

    def __str__(self) -> str:
        return f"{self.year}{self.week:02d}"

    def add_weeks(self, n: int) -> "Epiweek":
        year, week = self.year, self.week + n
        while week > weeks_in_year(year):
            week -= weeks_in_year(year)
            year += 1
        while week < 1:
            year -= 1
            week += weeks_in_year(year)
        return Epiweek(year, week)

    def diff(self, other: "Epiweek") -> int:
        """Number of weeks from ``other`` to ``self`` (signed)."""
        if self < other:
            return -other.diff(self)
        total = 0
        year = other.year
        while year < self.year:
            total += weeks_in_year(year)
            year += 1
        return total + self.week - other.week


def season_of(week: Epiweek) -> int | None:
    """Season start year containing ``week``, or None for off-season weeks.

    A season runs from week 40 of year Y through week 20 of year Y+1;
    week 53 of a 53-week year belongs to the season starting that year.
    """
    if week.week >= SEASON_START_WEEK:
        return week.year
    if week.week <= SEASON_END_WEEK:
        return week.year - 1
    return None


def season_weeks(season: int) -> list[Epiweek]:
    """All issue weeks of a season, in order (week 40 of ``season`` first)."""
    first = Epiweek(season, SEASON_START_WEEK)
    n = season_length(season)
    return [first.add_weeks(i) for i in range(n)]


def season_week(season: int, t: int) -> Epiweek:
    """The epiweek of week index t (1-based) of a season, which may run past
    the season's end."""
    return Epiweek(season, SEASON_START_WEEK).add_weeks(t - 1)


def season_length(season: int) -> int:
    return weeks_in_year(season) - SEASON_START_WEEK + 1 + SEASON_END_WEEK
