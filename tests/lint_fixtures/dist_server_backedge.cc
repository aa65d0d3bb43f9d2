// sfq-lint-path: src/dist/server_probe.cc
// sfq-lint-expect: layer-dag
//
// The dist layer reaching *up* into the server layer. tools/layers.toml
// puts dist below server: the merge tree needs only Count-Sketch
// addition, the delta codec and the RPC frame and socket transport of
// util/net.h, so aggregation links without the serving stack. A dist
// file including a server header is a back-edge the layer-DAG pass must
// flag.

#include "server/protocol.h"

namespace streamfreq {

int UsesServerFromDist() { return static_cast<int>(kOpcodeCount); }

}  // namespace streamfreq
