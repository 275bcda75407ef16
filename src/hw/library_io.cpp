#include "hw/library_io.hpp"

#include <istream>
#include <sstream>
#include <stdexcept>

namespace lycos::hw {

namespace {

[[noreturn]] void fail(int line, const std::string& message)
{
    throw std::invalid_argument("library line " + std::to_string(line) +
                                ": " + message);
}

Op_set parse_ops(const std::string& spec, int line)
{
    Op_set ops;
    std::istringstream in(spec);
    std::string item;
    while (std::getline(in, item, ',')) {
        if (item.empty())
            fail(line, "empty operation name");
        try {
            ops.insert(op_kind_from_string(item));
        }
        catch (const std::invalid_argument&) {
            fail(line, "unknown operation '" + item + "'");
        }
    }
    if (ops.empty())
        fail(line, "no operations listed");
    return ops;
}

}  // namespace

Hw_library parse_library(std::string_view text)
{
    Hw_library lib;
    std::istringstream in{std::string(text)};
    std::string raw;
    int line_no = 0;
    while (std::getline(in, raw)) {
        ++line_no;
        // Strip comments and whitespace-only lines.
        const auto hash = raw.find('#');
        const std::string line =
            hash == std::string::npos ? raw : raw.substr(0, hash);
        std::istringstream fields(line);
        std::string name, ops_spec;
        double area = 0.0;
        int latency = 0;
        if (!(fields >> name))
            continue;  // blank line
        if (!(fields >> ops_spec >> area >> latency))
            fail(line_no, "expected: name ops area latency");
        std::string extra;
        if (fields >> extra)
            fail(line_no, "trailing field '" + extra + "'");
        // parse_ops prefixes its own errors, so it runs outside the try
        // that adds the prefix to Hw_library::add's.
        Op_set ops = parse_ops(ops_spec, line_no);
        try {
            lib.add(Resource_type{name, std::move(ops), area, latency});
        }
        catch (const std::invalid_argument& e) {
            fail(line_no, e.what());
        }
    }
    if (lib.empty())
        throw std::invalid_argument("library file defines no resources");
    return lib;
}

Hw_library read_library(std::istream& in)
{
    std::ostringstream buf;
    buf << in.rdbuf();
    return parse_library(buf.str());
}

std::string format_library(const Hw_library& lib)
{
    std::ostringstream os;
    os << "# name ops area latency\n";
    for (const auto& t : lib.types()) {
        os << t.name << ' ' << to_string(t.ops) << ' ' << t.area << ' '
           << t.latency_cycles << '\n';
    }
    return os.str();
}

}  // namespace lycos::hw
