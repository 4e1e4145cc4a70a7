"""The parse-error corpus behind tests/golden/parse_errors.jsonl.

Each case is a scenario text and the parser's answer to it: "ok", or the
error's [line, column, expected, found]. The cases are every fixture cut at
each token end, seeded single-character substitutions in every fixture, and
texts where a grammar error comes before a character that starts no token.
Each line of the golden file holds one case's description and its answer, so
the check needs only the fixtures and the file.

Re-record (only when the parser's answers change on purpose):

    PYTHONPATH=src python3 tests/parse_corpus.py > tests/golden/parse_errors.jsonl
"""

import json
import pathlib
import random
import re
import sys

SCENARIO_DIR = pathlib.Path(__file__).resolve().parent.parent / "scenarios"
GOLDEN = pathlib.Path(__file__).resolve().parent / "golden" / "parse_errors.jsonl"

# Comments, and in group 1 the tokens as the fixtures write them.
_FIXTURE_TOKEN = re.compile(r'#[^\n]*|("(?:[^"\\\n]|\\.)*"|@?\w+|-\d+|[{}\[\]()=<>,])')

# Characters that start a token, end one, start no token, or are layout.
SUBSTITUTES = '"@-#\\ \t\n\x0c{}[]()=<>,09a_€²٣'
SUBSTITUTIONS_PER_FIXTURE = 105

PRECEDENCE = (
    'scenario "x"\nfuel 0 $',
    'scenario "x"\nstrategy bfs strategy $',
    'scenario "x"\ncontract @v code bank config [1, @a] $',
)


def fixture_text(name: str) -> str:
    return (SCENARIO_DIR / name).read_text(encoding="utf-8")


def case_text(case: dict) -> str:
    if "text" in case:
        return case["text"]
    text = fixture_text(case["fixture"])
    if "cut" in case:
        return text[: case["cut"]]
    at = case["at"]
    return text[:at] + case["char"] + text[at + 1 :]


def fixture_token_ends(text: str) -> list[int]:
    """The offset after each token of a well-formed fixture."""
    return [m.end() for m in _FIXTURE_TOKEN.finditer(text) if m[1]]


def cases():
    """Case descriptions, in the golden file's order."""
    for path in sorted(SCENARIO_DIR.glob("*.msc")):
        text = path.read_text(encoding="utf-8")
        for end in fixture_token_ends(text):
            yield {"fixture": path.name, "cut": end}
        rng = random.Random(path.name)
        for _ in range(SUBSTITUTIONS_PER_FIXTURE):
            yield {
                "fixture": path.name,
                "at": rng.randrange(len(text)),
                "char": rng.choice(SUBSTITUTES),
            }
    for text in PRECEDENCE:
        yield {"text": text}


def answer(text: str):
    from chainsim.scenario import ScenarioParseError, parse_scenario

    try:
        parse_scenario(text)
    except ScenarioParseError as err:
        return [err.line, err.column, err.expected, err.found]
    return "ok"


def main() -> None:
    for case in cases():
        case["answer"] = answer(case_text(case))
        sys.stdout.write(json.dumps(case, ensure_ascii=False) + "\n")


if __name__ == "__main__":
    main()
