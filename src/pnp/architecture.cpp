#include "pnp/architecture.h"

#include <sstream>

#include "support/panic.h"

namespace pnp {

int Architecture::add_global(std::string name, model::Value init) {
  globals_.push_back({std::move(name), init});
  ++version_;
  return static_cast<int>(globals_.size()) - 1;
}

int Architecture::add_component(std::string name, ComponentModelFn fn) {
  PNP_CHECK(fn != nullptr, "component model callback must not be null");
  ComponentDecl c;
  c.name = std::move(name);
  c.fn = std::move(fn);
  components_.push_back(std::move(c));
  ++version_;
  return static_cast<int>(components_.size()) - 1;
}

int Architecture::add_connector(std::string name, ChannelSpec spec) {
  PNP_CHECK(spec.capacity >= 1 || spec.kind == ChannelKind::SingleSlot,
            "buffered channel capacity must be >= 1");
  connectors_.push_back({std::move(name), spec});
  ++version_;
  return static_cast<int>(connectors_.size()) - 1;
}

void Architecture::attach_sender(int component, std::string port_name,
                                 int connector, SendPortKind kind) {
  Attachment a;
  a.component = component;
  a.port_name = std::move(port_name);
  a.connector = connector;
  a.is_sender = true;
  a.send_kind = kind;
  attachments_.push_back(std::move(a));
  ++version_;
}

void Architecture::attach_receiver(int component, std::string port_name,
                                   int connector, RecvPortKind kind,
                                   RecvPortOpts opts) {
  Attachment a;
  a.component = component;
  a.port_name = std::move(port_name);
  a.connector = connector;
  a.is_sender = false;
  a.recv_kind = kind;
  a.recv_opts = opts;
  attachments_.push_back(std::move(a));
  ++version_;
}

Attachment& Architecture::attachment_at(int component,
                                        const std::string& port_name) {
  for (Attachment& a : attachments_)
    if (a.component == component && a.port_name == port_name) return a;
  raise_model_error("no attachment named '" + port_name + "' on component " +
                    std::to_string(component));
}

void Architecture::set_send_port(int component, const std::string& port_name,
                                 SendPortKind kind) {
  Attachment& a = attachment_at(component, port_name);
  PNP_CHECK(a.is_sender, "set_send_port on a receiver attachment");
  a.send_kind = kind;
  ++version_;
}

void Architecture::set_send_port(int component, const std::string& port_name,
                                 SendPortKind kind, int retries) {
  PNP_CHECK(retries >= 0, "set_send_port: retries must be >= 0");
  Attachment& a = attachment_at(component, port_name);
  PNP_CHECK(a.is_sender, "set_send_port on a receiver attachment");
  a.send_kind = kind;
  a.send_retries = retries;
  ++version_;
}

void Architecture::set_crash_restart(int component, int max_crashes) {
  PNP_CHECK(component >= 0 && component < static_cast<int>(components_.size()),
            "set_crash_restart: unknown component");
  PNP_CHECK(max_crashes >= 0, "set_crash_restart: max_crashes must be >= 0");
  components_[static_cast<std::size_t>(component)].max_crashes = max_crashes;
  ++version_;
}

void Architecture::set_behavior_fingerprint(int component,
                                            std::string fingerprint) {
  PNP_CHECK(component >= 0 && component < static_cast<int>(components_.size()),
            "set_behavior_fingerprint: unknown component");
  components_[static_cast<std::size_t>(component)].behavior_fingerprint =
      std::move(fingerprint);
  // no version bump: the fingerprint describes the behaviour, it does not
  // change the generated model
}

void Architecture::set_recv_port(int component, const std::string& port_name,
                                 RecvPortKind kind, RecvPortOpts opts) {
  Attachment& a = attachment_at(component, port_name);
  PNP_CHECK(!a.is_sender, "set_recv_port on a sender attachment");
  a.recv_kind = kind;
  a.recv_opts = opts;
  ++version_;
}

void Architecture::set_channel(int connector, ChannelSpec spec) {
  PNP_CHECK(connector >= 0 && connector < static_cast<int>(connectors_.size()),
            "set_channel: unknown connector");
  connectors_[static_cast<std::size_t>(connector)].channel = spec;
  ++version_;
}

void Architecture::reattach(int component, const std::string& port_name,
                            int connector) {
  PNP_CHECK(connector >= 0 && connector < static_cast<int>(connectors_.size()),
            "reattach: unknown connector");
  attachment_at(component, port_name).connector = connector;
  ++version_;
}

int Architecture::find_component(const std::string& name) const {
  for (std::size_t i = 0; i < components_.size(); ++i)
    if (components_[i].name == name) return static_cast<int>(i);
  return -1;
}

int Architecture::find_connector(const std::string& name) const {
  for (std::size_t i = 0; i < connectors_.size(); ++i)
    if (connectors_[i].name == name) return static_cast<int>(i);
  return -1;
}

std::vector<const Attachment*> Architecture::attachments_of(
    int connector) const {
  std::vector<const Attachment*> out;
  for (const Attachment& a : attachments_)
    if (a.connector == connector && a.is_sender) out.push_back(&a);
  for (const Attachment& a : attachments_)
    if (a.connector == connector && !a.is_sender) out.push_back(&a);
  return out;
}

void Architecture::validate() const {
  for (const Attachment& a : attachments_) {
    PNP_CHECK(a.component >= 0 &&
                  a.component < static_cast<int>(components_.size()),
              "attachment references unknown component");
    PNP_CHECK(a.connector >= 0 &&
                  a.connector < static_cast<int>(connectors_.size()),
              "attachment references unknown connector");
  }
  // unique (component, port) pairs
  for (std::size_t i = 0; i < attachments_.size(); ++i)
    for (std::size_t j = i + 1; j < attachments_.size(); ++j)
      PNP_CHECK(!(attachments_[i].component == attachments_[j].component &&
                  attachments_[i].port_name == attachments_[j].port_name),
                "duplicate port name '" + attachments_[i].port_name +
                    "' on a component");
  for (std::size_t c = 0; c < connectors_.size(); ++c) {
    int senders = 0;
    int receivers = 0;
    for (const Attachment& a : attachments_) {
      if (a.connector != static_cast<int>(c)) continue;
      if (a.is_sender) {
        ++senders;
        if (connectors_[c].channel.kind == ChannelKind::EventPool)
          PNP_CHECK(a.send_kind == SendPortKind::AsynNonblocking ||
                        a.send_kind == SendPortKind::AsynBlocking ||
                        a.send_kind == SendPortKind::AsynChecking,
                    "publish/subscribe connector '" + connectors_[c].name +
                        "' requires asynchronous send ports (the event pool "
                        "never emits delivery notifications)");
      } else {
        ++receivers;
      }
    }
    PNP_CHECK(senders >= 1, "connector '" + connectors_[c].name +
                                "' has no sender attachment");
    PNP_CHECK(receivers >= 1, "connector '" + connectors_[c].name +
                                  "' has no receiver attachment");
  }
}

std::string Architecture::describe() const {
  std::ostringstream os;
  os << "architecture " << name_ << "\n";
  for (const GlobalDecl& g : globals_)
    os << "  global " << g.name << " = " << g.init << "\n";
  for (const ComponentDecl& c : components_) {
    os << "  component " << c.name;
    if (c.max_crashes > 0) os << " [crashes <= " << c.max_crashes << "]";
    os << "\n";
  }
  for (std::size_t i = 0; i < connectors_.size(); ++i) {
    os << "  connector " << connectors_[i].name << " : "
       << to_string(connectors_[i].channel) << "\n";
    for (const Attachment* a : attachments_of(static_cast<int>(i))) {
      os << "    " << (a->is_sender ? "sender  " : "receiver") << " "
         << components_[static_cast<std::size_t>(a->component)].name << "."
         << a->port_name << " via ";
      if (a->is_sender) {
        os << to_string(a->send_kind);
        if (a->send_kind == SendPortKind::TimeoutRetry)
          os << "(" << a->send_retries << ")";
      } else {
        os << to_string(a->recv_kind, a->recv_opts);
      }
      os << "\n";
    }
  }
  return os.str();
}

std::string Architecture::to_dot() const {
  std::ostringstream os;
  os << "digraph \"" << name_ << "\" {\n";
  os << "  rankdir=LR;\n  node [fontsize=10];\n";
  for (const ComponentDecl& c : components_)
    os << "  \"" << c.name << "\" [shape=box, style=filled, fillcolor=lightblue];\n";
  for (const ConnectorDecl& c : connectors_)
    os << "  \"" << c.name << "\" [shape=ellipse, label=\"" << c.name << "\\n"
       << to_string(c.channel) << "\"];\n";
  for (const Attachment& a : attachments_) {
    const std::string& comp =
        components_[static_cast<std::size_t>(a.component)].name;
    const std::string& conn =
        connectors_[static_cast<std::size_t>(a.connector)].name;
    if (a.is_sender)
      os << "  \"" << comp << "\" -> \"" << conn << "\" [label=\""
         << a.port_name << "\\n" << to_string(a.send_kind) << "\"];\n";
    else
      os << "  \"" << conn << "\" -> \"" << comp << "\" [label=\""
         << a.port_name << "\\n" << to_string(a.recv_kind, a.recv_opts)
         << "\"];\n";
  }
  os << "}\n";
  return os.str();
}

}  // namespace pnp
