// The seam between one node's runtime (service/node_runtime.hpp) and the
// medium that carries its frames.
//
// Down: send_frame ships one message, stamped with the epoch of the world
// it was minted in and the resource it belongs to, to node `to`. A frame
// to a node the transport cannot reach is dropped; repair covers the loss.
// Up: the transport calls NodeRuntime::on_frame for every frame it
// delivers and NodeRuntime::on_peer_down when a link dies without an
// orderly goodbye (NodeRuntime::on_peers_up when links come back).
//
// Implementations: the TCP transport::EventLoop, which encodes frames onto
// sockets; ThreadedLockSpace's in-process LoopbackTransport, which hands
// the MessagePtr to the destination runtime with no encoding; and the sim
// LockSpace's SimTransport, which stamps it onto the deterministic
// net::Network for delivery in a later simulator event. Repair control
// frames (service/repair_messages.hpp) are sent under the sender's repair
// mutex, so a transport must neither block on them nor deliver them on the
// sending thread.
#pragma once

#include "common/types.hpp"
#include "net/message.hpp"

namespace dmx::service {

class Transport {
 public:
  virtual void send_frame(NodeId to, Epoch epoch, ResourceId resource,
                          net::MessagePtr message) = 0;

 protected:
  ~Transport() = default;
};

}  // namespace dmx::service
