/**
 * @file
 * PVFS daemons implementation.
 */

#include "pvfs/server.hh"

#include "pvfs/protocol.hh"
#include "sock/socket.hh"

namespace ioat::pvfs {

using sim::Coro;

// --------------------------------------------------------------------
// MetadataManager
// --------------------------------------------------------------------

MetadataManager::MetadataManager(core::Node &node, const PvfsConfig &cfg,
                                 FsState &fs)
    : node_(node), cfg_(cfg), fs_(fs)
{
    node_.simulation().telemetry().add("pvfsMgr", this);
}

MetadataManager::~MetadataManager()
{
    node_.simulation().telemetry().remove(this);
}

void
MetadataManager::start()
{
    node_.simulation().spawn(acceptLoop());
}

Coro<void>
MetadataManager::acceptLoop()
{
    sock::Listener listener(node_.transport(), cfg_.mgrPort);
    for (;;) {
        sock::Socket conn = co_await listener.accept();
        node_.simulation().spawn(serveConnection(conn));
    }
}

Coro<void>
MetadataManager::serveConnection(sock::Socket conn)
{
    sim::RequestTracer *rt = node_.simulation().requestTracer();
    for (;;) {
        auto msg = co_await conn.recvMessage();
        if (!msg.has_value())
            co_return;

        sim::ScopedSpan op(rt, msg->trace, "mgr.op",
                           sim::CostCat::queueWait);
        const sim::Tick op_t0 = node_.simulation().now();
        co_await node_.cpu().compute(cfg_.mgrOpCost);
        if (rt && op.ctx().valid())
            rt->recordComputeSplit(op.ctx(), op_t0,
                                   node_.simulation().now(),
                                   {{"mgr.handle", sim::CostCat::cpu,
                                     cfg_.mgrOpCost}});
        ops_.inc();

        sock::Message reply;
        reply.tag = static_cast<std::uint64_t>(PvfsTag::OpOk);
        reply.trace = op.ctx();

        switch (static_cast<PvfsTag>(msg->tag)) {
          case PvfsTag::Create: {
            const FileHandle h =
                fs_.create(fileName(msg->a));
            reply.a = h;
            reply.b = fs_.size(h);
            break;
          }
          case PvfsTag::Lookup: {
            const FileHandle h =
                fs_.lookup(fileName(msg->a));
            if (h == kInvalidHandle) {
                reply.tag = static_cast<std::uint64_t>(PvfsTag::OpErr);
            } else {
                reply.a = h;
                reply.b = fs_.size(h);
            }
            break;
          }
          case PvfsTag::GetSize:
            if (!fs_.valid(msg->a)) {
                reply.tag = static_cast<std::uint64_t>(PvfsTag::OpErr);
            } else {
                reply.a = msg->a;
                reply.b = fs_.size(msg->a);
            }
            break;
          case PvfsTag::ExtendTo:
            fs_.extendTo(msg->a, msg->b);
            reply.a = msg->a;
            reply.b = fs_.size(msg->a);
            break;
          case PvfsTag::Truncate:
            fs_.truncate(msg->a, msg->b);
            reply.a = msg->a;
            reply.b = fs_.size(msg->a);
            break;
          default:
            sim::panic("metadata manager got a non-metadata op");
        }

        co_await conn.sendMessage(reply);
        op.end();
    }
}

// --------------------------------------------------------------------
// IodServer
// --------------------------------------------------------------------

IodServer::IodServer(core::Node &node, const PvfsConfig &cfg,
                     unsigned index)
    : node_(node), cfg_(cfg), index_(index),
      mem_(node.host(), "pvfs.iod" + std::to_string(index))
{
    node_.simulation().telemetry().add("iod", this);
}

IodServer::~IodServer() { node_.simulation().telemetry().remove(this); }

void
IodServer::start()
{
    node_.simulation().spawn(acceptLoop());
}

void
IodServer::onCrash(sim::Tick)
{
    // ramfs dies with the node: every applied-but-unjournaled write
    // is gone.  The intent log models an fsync'd journal and stays.
    applied_.clear();
}

void
IodServer::onRestart(sim::Tick)
{
    if (journal_.empty())
        return;
    for (const auto &e : journal_) {
        applied_[e.first] = e.second;
        replays_.inc();
    }
    node_.simulation().spawn(replayCost(journal_.size()));
}

Coro<void>
IodServer::replayCost(std::size_t entries)
{
    // Recovery competes for the CPU with freshly arriving requests;
    // the re-applied state itself was restored synchronously above
    // (connections from before the crash are gone, so no request can
    // observe the in-between).
    co_await node_.cpu().compute(cfg_.journalReplayCost *
                                 static_cast<unsigned>(entries));
}

Coro<void>
IodServer::acceptLoop()
{
    sock::Listener listener(node_.transport(), port());
    for (;;) {
        sock::Socket conn = co_await listener.accept();
        node_.simulation().spawn(serveConnection(conn));
    }
}

Coro<void>
IodServer::serveConnection(sock::Socket conn)
{
    sim::RequestTracer *rt = node_.simulation().requestTracer();
    for (;;) {
        auto msg = co_await conn.recvMessage();
        if (!msg.has_value())
            co_return;

        // The daemon's tenure on one data op, parented on the
        // client-side stripe span that rode the request header.
        sim::ScopedSpan serve(rt, msg->trace, "iod.serve",
                              sim::CostCat::queueWait);

        switch (static_cast<PvfsTag>(msg->tag)) {
          case PvfsTag::Read: {
            const std::size_t bytes = msg->c;
            const sim::Tick t0 = node_.simulation().now();
            co_await node_.cpu().compute(cfg_.iodRequestCost +
                                         cfg_.ramfsLookupCost);
            if (rt && serve.ctx().valid())
                rt->recordComputeSplit(
                    serve.ctx(), t0, node_.simulation().now(),
                    {{"iod.handle", sim::CostCat::cpu,
                      cfg_.iodRequestCost + cfg_.ramfsLookupCost}});
            // ramfs pages go straight out via sendfile: zero copy.
            sock::Message resp;
            resp.tag = static_cast<std::uint64_t>(PvfsTag::ReadResp);
            resp.a = msg->a;
            resp.payloadBytes = bytes;
            resp.trace = serve.ctx();
            co_await conn.sendMessage(
                resp, sock::SendOptions{.zeroCopy = true});
            bytesRead_.inc(bytes);
            break;
          }
          case PvfsTag::Write: {
            const std::size_t bytes = msg->payloadBytes;
            const sim::Tick t0 = node_.simulation().now();
            co_await node_.cpu().compute(cfg_.iodRequestCost +
                                         cfg_.ramfsLookupCost);
            if (rt && serve.ctx().valid())
                rt->recordComputeSplit(
                    serve.ctx(), t0, node_.simulation().now(),
                    {{"iod.handle", sim::CostCat::cpu,
                      cfg_.iodRequestCost + cfg_.ramfsLookupCost}});
            const std::size_t got =
                co_await conn.recvAll(bytes, serve.ctx());
            if (got != bytes)
                co_return; // connection died mid-payload: no ack
            const std::uint64_t wid = msg->c;
            bool duplicate = false;
            if (cfg_.trackDurability && wid != 0 &&
                applied_.count(wid) > 0) {
                // A timed-out RPC whose body completed anyway: the
                // retry must not apply twice (withTimeout does not
                // cancel; the write id is the dedup key).
                sim::simDebugAssert(
                    applied_[wid] == bytes,
                    "write retry with a different payload");
                dupWrites_.inc();
                duplicate = true;
            }
            if (!duplicate) {
                if (cfg_.journaledWrites && wid != 0) {
                    // Ack-after-journal: the intent is durable
                    // before the client can ever see the ack.
                    co_await node_.cpu().compute(
                        cfg_.journalAppendCost);
                    journal_[wid] = bytes;
                }
                // Store into ramfs: one more copy into page memory
                // (the pages are written once, not re-read, so they
                // do not join the daemon's working set).
                co_await mem_.streamCopy(bytes, serve.ctx());
                bytesWritten_.inc(bytes);
                if (cfg_.trackDurability && wid != 0)
                    applied_[wid] = bytes;
            }

            sock::Message ack;
            ack.tag = static_cast<std::uint64_t>(PvfsTag::WriteAck);
            ack.a = msg->a;
            ack.c = wid;
            ack.trace = serve.ctx();
            co_await conn.sendMessage(ack);
            break;
          }
          case PvfsTag::ReadList: {
            const std::size_t bytes = msg->c;
            const auto extents = static_cast<unsigned>(msg->b);
            // Gathering scattered extents costs per-extent CPU on
            // top of the base request handling.
            const sim::Tick t0 = node_.simulation().now();
            co_await node_.cpu().compute(cfg_.iodRequestCost +
                                         cfg_.ramfsLookupCost +
                                         cfg_.iodExtentCost * extents);
            if (rt && serve.ctx().valid())
                rt->recordComputeSplit(
                    serve.ctx(), t0, node_.simulation().now(),
                    {{"iod.handle", sim::CostCat::cpu,
                      cfg_.iodRequestCost + cfg_.ramfsLookupCost +
                          cfg_.iodExtentCost * extents}});
            sock::Message resp;
            resp.tag = static_cast<std::uint64_t>(PvfsTag::ReadResp);
            resp.a = msg->a;
            resp.payloadBytes = bytes;
            resp.trace = serve.ctx();
            co_await conn.sendMessage(
                resp, sock::SendOptions{.zeroCopy = true});
            bytesRead_.inc(bytes);
            break;
          }
          case PvfsTag::WriteList: {
            const std::size_t bytes = msg->payloadBytes;
            const auto extents = static_cast<unsigned>(msg->b);
            const sim::Tick t0 = node_.simulation().now();
            co_await node_.cpu().compute(cfg_.iodRequestCost +
                                         cfg_.ramfsLookupCost +
                                         cfg_.iodExtentCost * extents);
            if (rt && serve.ctx().valid())
                rt->recordComputeSplit(
                    serve.ctx(), t0, node_.simulation().now(),
                    {{"iod.handle", sim::CostCat::cpu,
                      cfg_.iodRequestCost + cfg_.ramfsLookupCost +
                          cfg_.iodExtentCost * extents}});
            const std::size_t got =
                co_await conn.recvAll(bytes, serve.ctx());
            if (got != bytes)
                co_return; // connection died mid-payload: no ack
            const std::uint64_t wid = msg->c;
            bool duplicate = false;
            if (cfg_.trackDurability && wid != 0 &&
                applied_.count(wid) > 0) {
                sim::simDebugAssert(
                    applied_[wid] == bytes,
                    "write retry with a different payload");
                dupWrites_.inc();
                duplicate = true;
            }
            if (!duplicate) {
                if (cfg_.journaledWrites && wid != 0) {
                    co_await node_.cpu().compute(
                        cfg_.journalAppendCost);
                    journal_[wid] = bytes;
                }
                co_await mem_.streamCopy(bytes, serve.ctx());
                bytesWritten_.inc(bytes);
                if (cfg_.trackDurability && wid != 0)
                    applied_[wid] = bytes;
            }

            sock::Message ack;
            ack.tag = static_cast<std::uint64_t>(PvfsTag::WriteAck);
            ack.a = msg->a;
            ack.c = wid;
            ack.trace = serve.ctx();
            co_await conn.sendMessage(ack);
            break;
          }
          default:
            sim::panic("iod got a non-I/O op");
        }
    }
}

} // namespace ioat::pvfs
