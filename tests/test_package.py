import re
from pathlib import Path

import rankrobust

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_lists_the_public_surface():
    text = README.read_text()
    section = text[text.index("## Public surface"):text.index("## Command line")]
    assert set(re.findall(r"`(\w+)`", section)) == {*rankrobust.__all__, "__version__"}
