// tecore-server — JSON-over-HTTP front end for the TeCoRe engine.
//
// The demo paper presents TeCoRe as an interactive web service; this
// binary is that service as infrastructure: a thread-safe api::Engine
// behind an embedded HTTP/1.1 server. Reads (stats, conflict browsing,
// completion, mining) run against immutable snapshots and never block
// writes; writes (graph/rule loads, solves, edit batches) are serialized
// and publish new snapshots atomically. See docs/api.md for the endpoint
// reference and README for a curl walkthrough of the paper's workflow.

#include <cstdio>
#include <cstring>

#include "api/version.h"
#include "server/serve.h"

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--help") == 0 ||
        std::strcmp(argv[i], "-h") == 0) {
      tecore::server::PrintServeUsage();
      return 0;
    }
    if (std::strcmp(argv[i], "--version") == 0) {
      std::printf("tecore-server %s (api v%d)\n", tecore::api::kTecoreVersion,
                  tecore::api::kApiMajorVersion);
      return 0;
    }
  }
  return tecore::server::RunServe(argc, argv, 1);
}
