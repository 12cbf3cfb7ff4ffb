import random

import pytest

from expsum.code_model import MetadataSet
from expsum.knowledge_base import KnowledgeEntry, PackageDoc, encode_tfidf, fit_tfidf


@pytest.fixture
def three_doc_corpus():
    return [
        PackageDoc(path_context="ohos.media", text="media session media"),
        PackageDoc(path_context="ohos.battery", text="battery power"),
        PackageDoc(path_context="ohos.mixed", text="media battery"),
    ]


@pytest.fixture
def three_doc_model(three_doc_corpus):
    return fit_tfidf(three_doc_corpus)


@pytest.fixture
def battery_metadata():
    return MetadataSet(
        function_name="getBatteryLevel",
        parameters=[],
        return_type="number",
        file_path="foundation/power/battery/src/main/ets/battery.ts",
        package_module="ohos.battery",
        dependency=["system.battery"],
        control_flow_skeleton="return statement",
        dmt={
            "@since": "API version 9",
            "@syscap": "SystemCapability.Power.Battery",
        },
    )


@pytest.fixture
def startup_visibility_metadata():
    return MetadataSet(
        function_name="StartupVisibility",
        parameters=[],
        return_type="enum",
        file_path="ability/startup/visibility.ets",
        package_module="ohos.app.ability",
        dependency=["system.ability"],
        dmt={"@since": "API version 12"},
    )


def make_entry(model, term, doc: PackageDoc) -> KnowledgeEntry:
    return KnowledgeEntry(
        term=term,
        documentation=doc.text,
        path_context=doc.path_context,
        vector=encode_tfidf(model, doc.text),
    )


@pytest.fixture
def table_style_kb():
    """Two entries sharing one term under different path contexts."""
    docs = [
        PackageDoc(
            path_context="ohos.data.relationalStore",
            text="Manages the RDBStore relational database configuration.",
        ),
        PackageDoc(
            path_context="ohos.data.rdb",
            text="Obtains table names of a remote device based on RDBStore.",
        ),
    ]
    model = fit_tfidf(docs)
    entries = [make_entry(model, "RDBStore", docs[0]), make_entry(model, "RDBStore", docs[1])]
    return model, entries


@pytest.fixture
def shared_context_docs():
    """Seeded corpus in which several docs share each path context and
    every doc carries several lexical terms; some texts repeat under one
    context, so their scores tie exactly."""
    rng = random.Random(20240611)
    contexts = ["ohos.data.rdb", "ohos.data.relationalStore", "ohos.media", "kit/media/session"]
    words = ["media", "session", "battery", "power", "store", "rdb", "data", "remote", "table"]
    terms = [
        "RdbStore", "AVSession", "AVSessionController", "MEDIA_KEY", "getBatteryLevel",
        "PowerStatus", "RemoteTable", "dataShare.query", "TableName",
    ]
    docs = []
    for context in contexts:
        for _ in range(rng.randrange(2, 5)):
            text = " ".join(
                rng.choices(words, k=rng.randrange(3, 10)) + rng.sample(terms, rng.randrange(2, 5))
            )
            docs.append(PackageDoc(path_context=context, text=text))
        docs.append(PackageDoc(path_context=context, text=docs[-1].text))
    return docs
