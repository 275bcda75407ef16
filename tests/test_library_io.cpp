// Tests for the text-format library loader.
#include <gtest/gtest.h>

#include <sstream>

#include "hw/library_io.hpp"

namespace lh = lycos::hw;
using lh::Op_kind;

TEST(LibraryIo, parses_basic_file)
{
    const auto lib = lh::parse_library(R"(
# a comment
adder       add,neg   180  1
multiplier  mul       2200 2

divider     div,mod   3600 4   # trailing comment
)");
    ASSERT_EQ(lib.size(), 3u);
    const auto adder = lib.find("adder");
    ASSERT_TRUE(adder.has_value());
    EXPECT_TRUE(lib[*adder].ops.contains(Op_kind::add));
    EXPECT_TRUE(lib[*adder].ops.contains(Op_kind::neg));
    EXPECT_DOUBLE_EQ(lib[*adder].area, 180.0);
    EXPECT_EQ(lib[*lib.find("multiplier")].latency_cycles, 2);
    EXPECT_TRUE(lib[*lib.find("divider")].ops.contains(Op_kind::mod));
}

TEST(LibraryIo, round_trip)
{
    const auto original = lh::make_default_library();
    const auto text = lh::format_library(original);
    const auto parsed = lh::parse_library(text);
    ASSERT_EQ(parsed.size(), original.size());
    for (std::size_t i = 0; i < original.size(); ++i) {
        const auto id = static_cast<lh::Resource_id>(i);
        EXPECT_EQ(parsed[id].name, original[id].name);
        EXPECT_EQ(parsed[id].ops, original[id].ops);
        EXPECT_DOUBLE_EQ(parsed[id].area, original[id].area);
        EXPECT_EQ(parsed[id].latency_cycles, original[id].latency_cycles);
    }
}

TEST(LibraryIo, read_from_stream)
{
    std::istringstream in("adder add 100 1\n");
    const auto lib = lh::read_library(in);
    EXPECT_EQ(lib.size(), 1u);
}

TEST(LibraryIo, error_reports_line_number)
{
    try {
        lh::parse_library("adder add 100 1\nbogus frob 10 1\n");
        FAIL() << "expected invalid_argument";
    }
    catch (const std::invalid_argument& e) {
        EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos);
    }
}

TEST(LibraryIo, rejects_malformed_rows)
{
    EXPECT_THROW(lh::parse_library("adder add 100\n"), std::invalid_argument);
    EXPECT_THROW(lh::parse_library("adder add 100 1 extra\n"),
                 std::invalid_argument);
    EXPECT_THROW(lh::parse_library("adder , 100 1\n"), std::invalid_argument);
    EXPECT_THROW(lh::parse_library(""), std::invalid_argument);
    EXPECT_THROW(lh::parse_library("# only comments\n"),
                 std::invalid_argument);
}

TEST(LibraryIo, rejects_invariant_violations)
{
    // zero area and duplicate names go through Hw_library::add checks
    EXPECT_THROW(lh::parse_library("adder add 0 1\n"), std::invalid_argument);
    EXPECT_THROW(lh::parse_library("a add 10 1\na add 10 1\n"),
                 std::invalid_argument);
    EXPECT_THROW(lh::parse_library("a add 10 0\n"), std::invalid_argument);
}

// Each error carries its "library line N: " prefix exactly once,
// whether the operation list or Hw_library::add rejected the row.
TEST(LibraryIo, error_prefix_appears_once)
{
    const std::string prefix = "library line 1: ";
    for (const char* text : {"adder bogus 100 1\n", "adder add 0 1\n"}) {
        try {
            lh::parse_library(text);
            ADD_FAILURE() << "expected invalid_argument for " << text;
        }
        catch (const std::invalid_argument& e) {
            const std::string what = e.what();
            EXPECT_EQ(what.find(prefix), 0u) << what;
            EXPECT_EQ(what.find(prefix, prefix.size()), std::string::npos)
                << what;
        }
    }
}
