import re
from pathlib import Path

from stardecomp.embedding import general_cap

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_quick_tour_runs_as_documented():
    text = README.read_text()
    tour = text[text.index("## Library quick tour") :]
    code = re.search(r"```python\n(.*?)```", tour, re.S).group(1)
    scope: dict = {}
    exec(code, scope)
    assert len(scope["dec"].stars) == 9
    assert scope["cert"].s == 4
    assert general_cap(3) > scope["cert"].s
    assert scope["report"].all_ok()
    assert scope["transcript"].outcome == "exhausted-nonexistence"
