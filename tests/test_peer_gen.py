import io
import json
import urllib.error
import urllib.request

import pytest

from odpc.errors import ConfigError, GenerationError, InvalidArgumentError, OfflineError
from odpc.peer_gen import (
    DEFAULT_DESCRIPTION_TEMPLATE,
    HttpLlmProvider,
    LlmCache,
    PeerGenConfig,
    StubProvider,
    build_prompt,
    generate_peer_classes,
    load_peers,
    normalize_label,
    parse_label_list,
    render_description,
    save_peers,
)


class ScriptedProvider:
    """Returns canned responses; each repeated query advances to the next one."""

    requires_network = False

    def __init__(self, responses):
        self.identifier = "scripted"
        self.responses = dict(responses)
        self.calls = []

    def request(self, prompt):
        self.calls.append(prompt)
        for key, outs in self.responses.items():
            if prompt.startswith(key):
                return outs
        return []


CFG = PeerGenConfig(peers_per_class=3)


def test_build_prompt_default_template():
    assert build_prompt("dog", CFG) == (
        "what categories are similar to dog in semantic or appearance"
    )


def test_build_prompt_custom_template():
    cfg = PeerGenConfig(prompt_template="Q: [class]?")
    assert build_prompt("x", cfg) == "Q: x?"


def test_build_prompt_empty_label():
    with pytest.raises(InvalidArgumentError):
        build_prompt("  ", CFG)


def test_render_description_default_template():
    assert render_description("dog", DEFAULT_DESCRIPTION_TEMPLATE) == "This is a photo of a dog"
    assert render_description("wolf", CFG.description_template) == "This is a photo of a wolf"
    assert render_description("wolf", "A [CLASS], maybe") == "A wolf, maybe"


def test_render_description_empty_label():
    with pytest.raises(InvalidArgumentError):
        render_description("", DEFAULT_DESCRIPTION_TEMPLATE)


def test_rendering_is_pure():
    for _ in range(3):
        assert build_prompt("cat", CFG) == build_prompt("cat", CFG)
        assert (render_description("cat", DEFAULT_DESCRIPTION_TEMPLATE)
                == render_description("cat", DEFAULT_DESCRIPTION_TEMPLATE))


def test_template_placeholder_validation():
    with pytest.raises(ConfigError):
        PeerGenConfig(prompt_template="no placeholder")
    with pytest.raises(ConfigError):
        PeerGenConfig(description_template="[CLASS] and [CLASS]")


def test_generation_filters_id_collisions():
    provider = ScriptedProvider({
        build_prompt("dog", CFG): ["cat", "wolf", "fox", "coyote"],
        build_prompt("cat", CFG): ["lion", "tiger", "lynx"],
    })
    peers = generate_peer_classes(["dog", "cat"], CFG, provider).peers
    assert peers["dog"] == ["wolf", "fox", "coyote"]
    assert peers["cat"] == ["lion", "tiger", "lynx"]


def test_generation_zero_peers():
    provider = ScriptedProvider({})
    result = generate_peer_classes(["dog", "cat"], PeerGenConfig(peers_per_class=0), provider)
    assert result.peers == {"dog": [], "cat": []}
    assert provider.calls == []


def test_generation_exhausts_attempts_on_collisions():
    cfg = PeerGenConfig(peers_per_class=1, max_requery_attempts=3)
    provider = ScriptedProvider({build_prompt("dog", cfg): ["Dog", "dog "]})
    with pytest.raises(GenerationError) as err:
        generate_peer_classes(["dog"], cfg, provider)
    assert "dog" in str(err.value)
    assert len(provider.calls) == 3
    assert provider.calls[1] != provider.calls[0]


def test_generation_requery_appends_suffix():
    cfg = PeerGenConfig(peers_per_class=2, max_requery_attempts=2)
    base = build_prompt("dog", cfg)
    provider = ScriptedProvider({
        base + " (": ["wolf", "fox"],
        base: ["cat"],
        build_prompt("cat", cfg): ["lion", "tiger"],
    })
    peers = generate_peer_classes(["dog", "cat"], cfg, provider).peers
    assert peers["dog"] == ["wolf", "fox"]


def test_generation_dedupes_within_class():
    cfg = PeerGenConfig(peers_per_class=2)
    provider = ScriptedProvider({
        build_prompt("dog", cfg): ["Wolf", "wolf", "fox"],
        build_prompt("cat", cfg): ["lion", "tiger"],
    })
    peers = generate_peer_classes(["dog", "cat"], cfg, provider).peers
    assert [normalize_label(p) for p in peers["dog"]] == ["wolf", "fox"]


def test_generation_validates_id_labels():
    provider = ScriptedProvider({})
    with pytest.raises(InvalidArgumentError):
        generate_peer_classes([], CFG, provider)
    with pytest.raises(InvalidArgumentError):
        generate_peer_classes(["dog", "Dog "], CFG, provider)


def test_no_peer_is_an_id_label_many_seeds():
    labels = ["amber badger", "arctic bobcat", "bronze civet", "golden jackal"]
    for seed in range(5):
        result = generate_peer_classes(labels, CFG, StubProvider(seed=seed))
        id_norm = {normalize_label(lb) for lb in labels}
        for label in labels:
            got = result.peers[label]
            assert len(got) == CFG.peers_per_class
            norms = [normalize_label(p) for p in got]
            assert len(set(norms)) == len(norms)
            assert not (set(norms) & id_norm)


def test_stub_provider_deterministic():
    a = StubProvider(seed=4).request("prompt one")
    b = StubProvider(seed=4).request("prompt one")
    c = StubProvider(seed=5).request("prompt one")
    assert a == b
    assert a != c


def test_cache_idempotent_generation(tmp_path):
    cache = LlmCache(tmp_path / "llm_cache.json")
    labels = ["amber badger", "arctic bobcat"]
    first = generate_peer_classes(labels, CFG, StubProvider(seed=1), cache)
    second = generate_peer_classes(labels, CFG, StubProvider(seed=1), cache)
    assert first.peers == second.peers
    assert first.provenance == second.provenance
    assert (tmp_path / "llm_cache.json").exists()


def test_cache_survives_reload(tmp_path):
    path = tmp_path / "llm_cache.json"
    labels = ["amber badger", "arctic bobcat"]
    first = generate_peer_classes(labels, CFG, StubProvider(seed=1), LlmCache(path))
    second = generate_peer_classes(labels, CFG, StubProvider(seed=1), LlmCache(path))
    assert first.peers == second.peers
    assert first.provenance == second.provenance


def test_cache_keeps_responses_fetched_before_a_generation_error(tmp_path, monkeypatch):
    from odpc import persist

    path = tmp_path / "llm_cache.json"
    writes, write_json = [], persist.write_json

    def counting(target, obj):
        writes.append(target)
        write_json(target, obj)

    monkeypatch.setattr(persist, "write_json", counting)
    cfg = PeerGenConfig(peers_per_class=1, max_requery_attempts=2)
    provider = ScriptedProvider({build_prompt("dog", cfg): ["wolf"]})
    with pytest.raises(GenerationError, match="'cat'"):
        generate_peer_classes(["dog", "cat"], cfg, provider, LlmCache(path))
    assert writes == [path]
    # dog's answer plus both of cat's empty ones.
    assert len(json.loads(path.read_text())["entries"]) == 3
    # An empty script answers nothing, so dog's peer comes from the cache.
    result = generate_peer_classes(["dog"], cfg, ScriptedProvider({}), LlmCache(path))
    assert result.peers == {"dog": ["wolf"]}


class FailingNetworkProvider:
    requires_network = True
    identifier = "http:test"

    def request(self, prompt):
        raise AssertionError("network should not be touched offline")


def test_offline_without_cache_raises():
    cfg = PeerGenConfig(peers_per_class=1, offline=True)
    with pytest.raises(OfflineError):
        generate_peer_classes(["dog", "cat"], cfg, FailingNetworkProvider())


def test_offline_served_from_warm_cache(tmp_path):
    path = tmp_path / "llm_cache.json"
    cfg = PeerGenConfig(peers_per_class=1)
    warm = ScriptedProvider({build_prompt("dog", cfg): ["wolf"], build_prompt("cat", cfg): ["lion"]})
    warm.identifier = "http:test"
    generate_peer_classes(["dog", "cat"], cfg, warm, LlmCache(path))

    offline_cfg = PeerGenConfig(peers_per_class=1, offline=True)
    result = generate_peer_classes(["dog", "cat"], offline_cfg, FailingNetworkProvider(), LlmCache(path))
    assert result.peers == {"dog": ["wolf"], "cat": ["lion"]}


def test_http_provider_parses_injected_response(monkeypatch):
    monkeypatch.setenv("ODPC_LLM_API_KEY", "k-123")
    seen = {}

    def fake_post(url, json_body, headers, timeout):
        seen["url"] = url
        seen["auth"] = headers["Authorization"]
        seen["prompt"] = json_body["messages"][-1]["content"]
        return {"choices": [{"message": {"content": "- wolf\n- fox\n2. coyote\n"}}]}

    provider = HttpLlmProvider("https://llm.example/v1/chat", "test-model", post_fn=fake_post)
    out = provider.request("what categories are similar to dog in semantic or appearance")
    assert out == ["wolf", "fox", "coyote"]
    assert seen["auth"] == "Bearer k-123"
    assert "dog" in seen["prompt"]


def test_http_provider_requires_api_key(monkeypatch):
    monkeypatch.delenv("ODPC_LLM_API_KEY", raising=False)
    provider = HttpLlmProvider("https://llm.example", "m", post_fn=lambda *a, **k: {})
    with pytest.raises(ConfigError):
        provider.request("prompt")


def test_http_provider_wraps_transport_errors(monkeypatch):
    monkeypatch.setenv("ODPC_LLM_API_KEY", "k")

    def boom(url, json_body, headers, timeout):
        raise RuntimeError("connection reset")

    provider = HttpLlmProvider("https://llm.example", "m", post_fn=boom)
    with pytest.raises(GenerationError):
        provider.request("prompt")


class _FakeResponse(io.BytesIO):
    """What ``urlopen`` returns: a readable body usable as a context manager."""


def test_http_provider_default_transport_posts_json(monkeypatch):
    monkeypatch.setenv("ODPC_LLM_API_KEY", "k-123")
    seen = []

    def fake_urlopen(request, timeout):
        seen.append((request, timeout))
        reply = {"choices": [{"message": {"content": "wolf\nfox"}}]}
        return _FakeResponse(json.dumps(reply).encode("utf-8"))

    monkeypatch.setattr(urllib.request, "urlopen", fake_urlopen)
    provider = HttpLlmProvider("https://llm.example/v1/chat", "test-model", timeout=7.5)
    assert provider.request("similar to dog") == ["wolf", "fox"]
    [(request, timeout)] = seen
    assert request.full_url == "https://llm.example/v1/chat"
    assert request.get_method() == "POST"
    assert request.get_header("Authorization") == "Bearer k-123"
    assert request.get_header("Content-type") == "application/json"
    body = json.loads(request.data.decode("utf-8"))
    assert body["model"] == "test-model" and body["temperature"] == 0
    assert body["messages"][-1] == {"role": "user", "content": "similar to dog"}
    assert timeout == 7.5


def test_http_provider_default_transport_http_error_is_generation_error(monkeypatch):
    monkeypatch.setenv("ODPC_LLM_API_KEY", "k")

    def fake_urlopen(request, timeout):
        raise urllib.error.HTTPError(request.full_url, 503, "Service Unavailable", {}, None)

    monkeypatch.setattr(urllib.request, "urlopen", fake_urlopen)
    provider = HttpLlmProvider("https://llm.example", "m")
    with pytest.raises(GenerationError, match="503"):
        provider.request("prompt")


def test_parse_label_list_comma_form():
    assert parse_label_list("wolf, fox, coyote") == ["wolf", "fox", "coyote"]
    assert parse_label_list("* wolf\n\n* fox") == ["wolf", "fox"]


def test_peers_json_roundtrip(tmp_path):
    cfg = PeerGenConfig(peers_per_class=2)
    provider = ScriptedProvider({
        build_prompt("dog", cfg): ["wolf", "fox"],
        build_prompt("cat", cfg): ["lion", "tiger"],
    })
    peer_set = generate_peer_classes(["dog", "cat"], cfg, provider)
    path = tmp_path / "peers.json"
    save_peers(peer_set, cfg, path)
    doc = json.loads(path.read_text())
    assert doc["n"] == 2
    assert doc["prompt_template"] == cfg.prompt_template
    assert doc["description_template"] == cfg.description_template
    assert doc["classes"] == {"dog": ["wolf", "fox"], "cat": ["lion", "tiger"]}
    assert "provider" in doc["provenance"]

    back, raw = load_peers(path)
    assert back == peer_set
    assert raw == doc
    # A file written indented, as odpc wrote it before one-line JSON, loads the same.
    path.write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n", encoding="utf-8")
    assert load_peers(path) == (back, raw)


def test_generated_peer_set_carries_the_config_template(tmp_path):
    cfg = PeerGenConfig(peers_per_class=1, description_template="A sketch of [CLASS]")
    peer_set = generate_peer_classes(["dog"], cfg, ScriptedProvider({"": ["wolf"]}))
    assert peer_set.description_template == "A sketch of [CLASS]"
    path = tmp_path / "peers.json"
    save_peers(peer_set, cfg, path)
    assert load_peers(path)[0].description_template == "A sketch of [CLASS]"


def test_load_peers_without_template_renders_with_the_default(tmp_path):
    path = tmp_path / "peers.json"
    path.write_text(json.dumps({"classes": {"dog": ["wolf"]}}), encoding="utf-8")
    peer_set, _ = load_peers(path)
    assert peer_set.description_template == DEFAULT_DESCRIPTION_TEMPLATE


@pytest.mark.parametrize(
    "classes",
    [["dog"], {"dog": "wolf"}, {"dog": ["wolf", " "]}, {"dog": ["wolf", 3]}],
    ids=["list", "string-peers", "blank-peer", "number-peer"],
)
def test_load_peers_rejects_malformed_classes(tmp_path, classes):
    path = tmp_path / "peers.json"
    path.write_text(json.dumps({"classes": classes}), encoding="utf-8")
    with pytest.raises(ConfigError, match="peers.json"):
        load_peers(path)


def test_load_peers_rejects_non_string_description_template(tmp_path):
    # Also a string without [CLASS] or with it twice: each names the file.
    path = tmp_path / "peers.json"
    for template in (5, "a photo", "[CLASS] and [CLASS]"):
        path.write_text(json.dumps({"classes": {"dog": ["wolf"]}, "description_template": template}),
                        encoding="utf-8")
        with pytest.raises(ConfigError, match="description_template") as err:
            load_peers(path)
        assert str(path) in str(err.value)


def test_distinct_peer_count():
    cfg = PeerGenConfig(peers_per_class=2)
    provider = ScriptedProvider({
        build_prompt("dog", cfg): ["wolf", "fox"],
        build_prompt("cat", cfg): ["Wolf", "tiger", "lion"],
    })
    peer_set = generate_peer_classes(["dog", "cat"], cfg, provider)
    # "Wolf" collides with "wolf" across classes after normalization
    assert peer_set.distinct_peer_count() == 3
