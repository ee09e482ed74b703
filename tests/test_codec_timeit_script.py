"""scripts/codec_timeit.py runs end to end with one call per path."""
import importlib.util
import json
import os

from conftest import REPO_ROOT

_spec = importlib.util.spec_from_file_location("codec_timeit", os.path.join(REPO_ROOT, "scripts", "codec_timeit.py"))
codec_timeit = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(codec_timeit)


def test_codec_timeit_prints_every_path(monkeypatch, capsys):
    monkeypatch.setattr(codec_timeit, "REPEAT", 1)
    monkeypatch.setattr(codec_timeit, "NUMBER", 1)
    codec_timeit.main()
    timings = json.loads(capsys.readouterr().out)
    assert set(timings) == {
        "account_encode", "account_digest", "spend_encode_tx", "decode_tx", "signing_bytes", "header_encode",
        "name_record_encode", "program_decode", "program_encode", "contract_create_decode_tx",
        "contract_create_signing_bytes", "contract_call_decode_tx",
    }
    assert all(value > 0 for value in timings.values())
