"""Regenerate the static test fixtures under tests/fixtures/.

Run from the repository root: python tools/make_fixtures.py
"""

import json
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))

from argus.agent import ChatTurn, Role, Transcript, save_transcript  # noqa: E402

ROOT = os.path.join(os.path.dirname(__file__), "..", "tests", "fixtures")


def write(path, content):
    path = os.path.join(ROOT, path)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        if isinstance(content, str):
            fh.write(content)
        else:
            json.dump(content, fh, indent=2)
            fh.write("\n")


def write_replay(path, turns):
    """A replay transcript of ``turns``, written as argus writes one."""
    path = os.path.join(ROOT, path)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    save_transcript(Transcript(turns, model_tag="replay-fixture"), path)


# ---------------------------------------------------------------------------
# datagear_mini: a previously fixed sink reached by two fresh paths.

DG = "org.datagear.analysis.support.DefaultDataSetParamValueConverter"

write("datagear_mini/graph.json", {
    "format_version": "1",
    "source_files": ["src/main/java/org/datagear/web/ParamController.java",
                     "src/main/java/org/datagear/analysis/Converter.java"],
    "functions": [
        {"id": "fh", "name": "org.datagear.web.ParamController.handle",
         "parameters": ["n_req"], "is_entry_point": True},
        {"id": "fm", "name": DG + ".convert", "parameters": [],
         "is_entry_point": False},
    ],
    "nodes": [
        {"id": "n_req", "kind": "parameter", "function_id": "fh",
         "label": "javax.servlet.http.HttpServletRequest.getParameter",
         "taint_role": "source", "source_kind": "http-param"},
        {"id": "n_a", "kind": "variable", "function_id": "fh",
         "label": "org.datagear.web.ParamController.paramValue"},
        {"id": "n_b", "kind": "variable", "function_id": "fh",
         "label": "org.datagear.web.ParamController.exprValue"},
        {"id": "n_eval", "kind": "call-argument", "function_id": "fm",
         "label": DG + ".evaluateVariableExpression"},
    ],
    "edges": [
        {"id": "e1", "from": "n_req", "to": "n_a", "kind": "assign"},
        {"id": "e2", "from": "n_a", "to": "n_eval", "kind": "call-pass"},
        {"id": "e3", "from": "n_req", "to": "n_b", "kind": "assign"},
        {"id": "e4", "from": "n_b", "to": "n_eval", "kind": "call-pass"},
    ],
    "call_edges": [],
    "anchors": [],
})

write("datagear_mini/deps.json", {
    "format_version": "1",
    "dependencies": [
        {"ecosystem": "maven", "name": "org.datagear:datagear-analysis",
         "version": "4.6.0", "scope": "compile"},
    ],
})

write("datagear_mini/advisories/NVD__org.datagear__datagear-analysis.json", [
    {
        "identifier": "CVE-2024-37759",
        "description": "Expression evaluation in data set parameter conversion "
                       "allows injected expressions to execute.",
        "severity": "high",
        "affected_versions": "<5.0.0",
        "cve_id": "CVE-2024-37759",
    },
])

dg_payload = {
    "restated_description": "Data set parameter values are evaluated as expressions "
                            "without restriction, so a crafted parameter executes "
                            "attacker-chosen expression code.",
    "root_cause": "Parameter values flow into the expression evaluator unfiltered.",
    "code_pattern": "String v = request.getParameter(name); "
                    "DefaultDataSetParamValueConverter.evaluateVariableExpression(v);",
    "attack_scenario": "An attacker submits a chart parameter containing an "
                       "expression payload that the converter evaluates.",
    "trigger_code": "converter.evaluateVariableExpression(\"${T(java.lang.Runtime)"
                    ".getRuntime().exec('id')}\")",
    "patch": "Restrict evaluation to a whitelisted expression grammar before "
             "calling evaluateVariableExpression.",
    "explanation": "The converter keeps the pre-fix behaviour reachable through "
                   "alternate parameter entry points.",
}
write_replay("datagear_mini/replay/poc__CVE-2024-37759.jsonl", [
    ChatTurn(Role.SYSTEM, "security analyst poc workflow", token_count=40),
    ChatTurn(Role.USER, "analyze CVE-2024-37759 for org.datagear:datagear-analysis",
             token_count=120),
    ChatTurn(Role.ASSISTANT, "```final\n" + json.dumps(dg_payload) + "\n```",
             token_count=260),
])

write("datagear_mini/expected.json", {
    "rag_sinks": 1,
    "static_sinks": 0,
    "flows": 2,
    "stitched_flows": 0,
    "confirmed": 2,
    "poc_prompt_tokens": 160,
    "poc_completion_tokens": 260,
})

# ---------------------------------------------------------------------------
# publiccms_mini: wrong suspected sink, true entry recovered backward.

PC = "com.publiccms.common.tools.DocToHtmlUtils"

write("publiccms_mini/graph.json", {
    "format_version": "1",
    "source_files": ["src/main/java/com/publiccms/common/tools/DocToHtmlUtils.java"],
    "functions": [
        {"id": "fx", "name": PC + ".excelToHtml", "parameters": ["n_doc"],
         "is_entry_point": True},
        {"id": "fp", "name": PC + ".parseXml", "parameters": ["n_pparam"],
         "is_entry_point": False},
    ],
    "nodes": [
        {"id": "n_doc", "kind": "parameter", "function_id": "fx",
         "label": PC + ".excelToHtml.doc",
         "taint_role": "source", "source_kind": "file-upload"},
        {"id": "n_wb", "kind": "variable", "function_id": "fx",
         "label": "org.apache.poi.xssf.usermodel.XSSFWorkbook"},
        {"id": "n_xarg", "kind": "call-argument", "function_id": "fx",
         "label": PC + ".excelToHtml.parseCallArg"},
        {"id": "n_pparam", "kind": "parameter", "function_id": "fp",
         "label": PC + ".parseXml.content"},
        {"id": "n_newinst", "kind": "call-argument", "function_id": "fp",
         "label": "javax.xml.parsers.DocumentBuilderFactory.newInstance"},
    ],
    "edges": [
        {"id": "e1", "from": "n_doc", "to": "n_wb", "kind": "assign"},
        {"id": "e2", "from": "n_wb", "to": "n_xarg", "kind": "call-pass"},
        {"id": "e3", "from": "n_xarg", "to": "n_pparam", "kind": "call-pass",
         "visible_to_forward": False},
        {"id": "e4", "from": "n_pparam", "to": "n_newinst", "kind": "call-pass"},
    ],
    "call_edges": [
        {"caller": "fx", "callee": "fp", "call_site_node": "n_xarg"},
    ],
    "anchors": [],
})

write("publiccms_mini/pom.xml", """<?xml version="1.0" encoding="UTF-8"?>
<project xmlns="http://maven.apache.org/POM/4.0.0">
  <modelVersion>4.0.0</modelVersion>
  <groupId>com.publiccms</groupId>
  <artifactId>publiccms-mini</artifactId>
  <version>1.0.0</version>
  <dependencies>
    <dependency>
      <groupId>org.apache.poi</groupId>
      <artifactId>poi-ooxml</artifactId>
      <version>5.2.0</version>
      <scope>compile</scope>
    </dependency>
  </dependencies>
</project>
""")

write("publiccms_mini/advisories/NVD__org.apache.poi__poi-ooxml.json", [
    {
        "identifier": "CVE-2025-31672",
        "description": "Crafted spreadsheet XML content is parsed without "
                       "restricting document type declarations.",
        "severity": "high",
        "affected_versions": "<5.2.1",
        "cve_id": "CVE-2025-31672",
    },
])

pc_payload = {
    "restated_description": "Spreadsheet content reaches an XML parser configured "
                            "without XXE protections.",
    "root_cause": "Workbook XML parts are handed to a default-configured parser "
                  "factory.",
    "code_pattern": "DocumentBuilderFactory.newInstance().newDocumentBuilder()"
                    ".parse(part); com.publiccms.common.base.BasicTypeValidator.builder(part);",
    "attack_scenario": "An uploaded workbook smuggles a doctype that exfiltrates "
                       "files when the sheet XML is parsed.",
    "trigger_code": "DocumentBuilderFactory.newInstance().newDocumentBuilder()"
                    ".parse(new InputSource(new StringReader(xxe)))",
    "patch": "Disable doctype declarations on the parser factory before parsing "
             "workbook parts.",
    "explanation": "The factory call is only a proxy for the dangerous behaviour; "
                   "the reachable entry point sits further up the call chain.",
}
write_replay("publiccms_mini/replay/poc__CVE-2025-31672.jsonl", [
    ChatTurn(Role.SYSTEM, "security analyst poc workflow", token_count=45),
    ChatTurn(Role.USER, "analyze CVE-2025-31672 for org.apache.poi:poi-ooxml",
             token_count=130),
    ChatTurn(Role.ASSISTANT, "```final\n" + json.dumps(pc_payload) + "\n```",
             token_count=310),
])

write("publiccms_mini/expected.json", {
    "rag_sinks": 0,
    "static_sinks": 1,
    "flows": 1,
    "stitched_flows": 1,
    "confirmed": 0,
    "poc_prompt_tokens": 175,
    "poc_completion_tokens": 310,
})

# ---------------------------------------------------------------------------
# SARIF interchange fixture.

write("sarif/graph.json", {
    "format_version": "1",
    "source_files": ["app/handler.py"],
    "functions": [
        {"id": "f0", "name": "app.handler.run", "parameters": ["s1"],
         "is_entry_point": True},
    ],
    "nodes": [
        {"id": "s1", "kind": "parameter", "function_id": "f0",
         "label": "app.handler.request_ip", "taint_role": "source",
         "source_kind": "http-param"},
        {"id": "s2", "kind": "variable", "function_id": "f0",
         "label": "app.handler.command"},
        {"id": "s3", "kind": "call-argument", "function_id": "f0",
         "label": "subprocess.call", "taint_role": "sink",
         "sink_kind": "command-exec"},
    ],
    "edges": [
        {"id": "e1", "from": "s1", "to": "s2", "kind": "assign"},
        {"id": "e2", "from": "s2", "to": "s3", "kind": "call-pass"},
    ],
    "call_edges": [],
    "anchors": [
        {"file": "app/handler.py", "start_line": 10, "end_line": 12, "node_id": "s1"},
        {"file": "app/handler.py", "start_line": 20, "end_line": 22, "node_id": "s2"},
        {"file": "app/handler.py", "start_line": 30, "end_line": 32, "node_id": "s3"},
    ],
})


def sarif_location(uri, line):
    return {
        "location": {
            "physicalLocation": {
                "artifactLocation": {"uri": uri},
                "region": {"startLine": line, "endLine": line},
            }
        }
    }


write("sarif/results.sarif", {
    "version": "2.1.0",
    "runs": [
        {
            "tool": {"driver": {"name": "external-analyzer"}},
            "results": [
                {
                    "ruleId": "py/command-injection",
                    "codeFlows": [
                        {
                            "threadFlows": [
                                {"locations": [
                                    sarif_location("app/handler.py", 11),
                                    sarif_location("app/handler.py", 21),
                                    sarif_location("app/handler.py", 31),
                                ]},
                            ]
                        }
                    ],
                },
                {
                    "ruleId": "py/command-injection",
                    "codeFlows": [
                        {
                            "threadFlows": [
                                {"locations": [
                                    sarif_location("app/other.py", 5),
                                    sarif_location("app/handler.py", 31),
                                ]},
                            ]
                        }
                    ],
                },
            ],
        }
    ],
})

write("sarif/empty.sarif", {
    "version": "2.1.0",
    "runs": [{"tool": {"driver": {"name": "external-analyzer"}}, "results": []}],
})

# ---------------------------------------------------------------------------
# Community issue fixtures.

prose = (
    "While generating the quarterly export our service went down for several "
    "hours and the archive it produced was missing most records. After the "
    "restart the remaining jobs kept producing archives with partial content, "
    "and once the queue drained we confirmed permanent data loss for the "
    "affected tenants. The operators rotated the storage volume and replayed "
    "the journal, yet the holes in the history remained, which suggests the "
    "records were dropped before they ever reached the log. We compared the "
    "output against the previous month and roughly a third of the entries are "
    "gone. This report documents the timeline and the tenants involved so the "
    "maintainers can judge the severity themselves."
)
assert len(prose) >= 500 and len(prose) < 700, len(prose)
write("issue_prose.json", {
    "title": "Export archives incomplete after outage",
    "body": prose,
    "comment_count": 0,
    "cve_linked": False,
    "repo": "primary",
    "url": "https://example.org/issues/41",
})

write("community/community__org.datagear__datagear-analysis.json", [
    {
        "title": "Potential vulnerability in parameter expression handling",
        "body": "There is a potential vulnerability: parameter expressions are "
                "evaluated directly. A crafted payload reaches the evaluator "
                "(injection) and runs. Suggested fix: validate the expression "
                "grammar.\n\n```java\nconverter.evaluate(userInput);\n```",
        "comment_count": 7,
        "cve_linked": False,
        "repo": "primary",
        "url": "https://example.org/issues/100",
    },
    {
        "title": "Crash when loading saved chart",
        "body": "Chart fails to load after upgrade.",
        "comment_count": 1,
        "cve_linked": True,
        "repo": "fork/acme",
        "url": "https://example.org/issues/101",
    },
])

print("fixtures written under", os.path.abspath(ROOT))
