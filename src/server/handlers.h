// Request handlers: the thin adapter from decoded wire::Requests to
// api::Service calls. One function, shared by the server's connection
// threads and by tests that want handler behavior without sockets.
#pragma once

#include <string>
#include <utility>

#include "api/service.h"
#include "server/wire.h"

namespace riskroute::server {

/// Executes one request against the service and returns the reply
/// status + body. The body of a kOk reply is the api response's `body`
/// — byte-identical to the equivalent CLI subcommand's stdout. Errors
/// map to: InvalidArgument (unknown PoP, bad field) -> kBadRequest;
/// disconnected route endpoints -> kBadRequest ("PoPs are not
/// connected\n", the CLI's stderr line); anything else -> kInternal.
/// Shutdown frames are the connection loop's business, not a handler's.
[[nodiscard]] std::pair<wire::Status, std::string> HandleRequest(
    const api::Service& service, const wire::Request& request);

}  // namespace riskroute::server
