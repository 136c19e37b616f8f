"""Byte-level goldens of CLI outputs.

Each value is the sha256 of an output recorded from the program as it
was before the census, verifier and writer code was restructured into
one scan pass, one statement table and one row writer.  The verify
reports are hashed without their ``elapsed`` line.
"""

import hashlib

import pytest

from graphtheta.cli import main

GOLDEN = {
    "scan 3..15 --format csv": "7d90b3b5ac600c2079dde180a754187e475ff7cdc1b370270a09ca84ee129158",
    "scan 3..15 --format json": "1fdfafcfdc74225fde6c3e2b1dff4489bf48eca20eb14b0672be42184986ef70",
    "scan 3..15 witnesses": "e14e256e3affba3135e60772f24c03470bb2d5c04d00cba3b9e36befce8215c3",
    "scan 12 --workers 2": "94126c1361f36e862ff77df972d09de9b59bdb8057ac26f81711a96ac699b540",
    "near-ties 15 --top-k 5 --format csv": "c78bafe1fcd41d1b8183e8c0a2cd4efe68bca6fc24c4df4eea3dfec989196348",
    "near-ties 15 --top-k 5 --format json": "5b4b2733f32f313beb0fd96f697e326d982a75eaecb84d2385336c92f4fa3b4c",
    "near-ties 16 --top-k 4 --format csv": "d9a1b57471283f2fecb45eef302f2ded25a4ca1e4d237a011e19263f7d187fc3",
    "near-ties 16 --top-k 4 --format json": "0053af57cbda9d03dd1b7a923265411edfb4136ab219b7cadcc71ba876925116",
    "verify p1 --max-order 7": "414ef8e38120b69c11d4781eac0bb683e2a612060706eed04192f6d82eb5d3e9",
    "verify t1 --max-order 7": "8177dcd09c2642ba0bdbc990dba7a2fd1d4d3267f28a25cba80f354958c7b081",
    "verify t2 --max-order 7": "ee06ec24150a799df695b2d1a9eca1eb1508f5ee2876bae13f54f860b45aae43",
    "verify t3 --max-order 7": "3c70ff5543bfd37e10e553561a61703977882066fa8e5910ddaf278c42fca9ee",
    "enum trees 12": "e74f2d9e2ca9736d213b89ef046dffd1102857e9e3602f39560502d7c121da87",
    # recorded once the universe build keyed only the candidates whose new
    # vertex is a non-cut vertex of greatest degree
    "enum connected 6": "923cd15b9f24e9d57434a10e56791991c97579ecbcb9714e837c3cf997ddff48",
    "enum connected 7": "778389f2ebc1383318b681ec3bd26023a3006fccfd4996b85f7d95000f6552d4",
    "index --format csv": "046713464eb56b917becaaabc53f503142589eeabc9415f8a872449b124de530",
    "index --format json": "8ea3aa0301db6cb842e545e8e2d97a61ac5163824bef0ba7b7872f51a6e5fb68",
    # recorded before a class carried its own ABC and ABS sums and
    # ``Tables.class_of`` read a tree's class from memoized branches
    "scan 16..17 --workers 1 witnesses": "31cbda07d327de92c3a28dd99924294082e14ea3e7404818097dc42124772e1f",
    "scan 16..17 --workers 2 witnesses": "31cbda07d327de92c3a28dd99924294082e14ea3e7404818097dc42124772e1f",
}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def stdout_of(capsys, *argv) -> bytes:
    assert main(list(argv)) == 0
    return capsys.readouterr().out.encode("ascii")


@pytest.mark.parametrize("command", [
    "scan 12 --workers 2",
    "near-ties 15 --top-k 5 --format csv",
    "near-ties 15 --top-k 5 --format json",
    "near-ties 16 --top-k 4 --format csv",
    "near-ties 16 --top-k 4 --format json",
    "enum trees 12",
    "enum connected 6",
    "enum connected 7",
])
def test_stdout(capsys, command):
    assert sha256(stdout_of(capsys, *command.split())) == GOLDEN[command]


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_scan_with_witnesses(capsys, tmp_path, fmt):
    witnesses = tmp_path / "neg.g6"
    out = stdout_of(capsys, "scan", "3..15", "--format", fmt, "--witness-out", str(witnesses))
    assert sha256(out) == GOLDEN[f"scan 3..15 --format {fmt}"]
    assert sha256(witnesses.read_bytes()) == GOLDEN["scan 3..15 witnesses"]


@pytest.mark.parametrize("workers", ["1", "2"])
def test_scan_witnesses_of_orders_16_and_17(capsys, tmp_path, workers):
    witnesses = tmp_path / "neg.g6"
    stdout_of(capsys, "scan", "16..17", "--workers", workers, "--witness-out", str(witnesses))
    assert sha256(witnesses.read_bytes()) == GOLDEN[f"scan 16..17 --workers {workers} witnesses"]


@pytest.mark.parametrize("statement", ["p1", "t1", "t2", "t3"])
def test_verify_without_elapsed(capsys, statement):
    out = stdout_of(capsys, "verify", statement, "--max-order", "7")
    kept = b"".join(line for line in out.splitlines(keepends=True)
                    if not line.lstrip().startswith(b'"elapsed"'))
    assert sha256(kept) == GOLDEN[f"verify {statement} --max-order 7"]


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_index_over_trees_of_order_12(capsys, tmp_path, fmt):
    trees = tmp_path / "t12.g6"
    assert main(["enum", "trees", "12", "--out", str(trees)]) == 0
    out = stdout_of(capsys, "index", "--in", str(trees), "--format", fmt)
    assert sha256(out) == GOLDEN[f"index --format {fmt}"]
