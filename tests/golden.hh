/**
 * @file
 * Whole-dump golden files: a stats dump pinned byte for byte against
 * tests/golden/<name>. A test binary that uses this gets
 * QPIP_GOLDEN_DIR and QPIP_GOLDEN_ACTUAL_DIR from tests/CMakeLists.txt.
 */

#pragma once

#include <gtest/gtest.h>

#include <fstream>
#include <iterator>
#include <string>

namespace qpip::test {

/**
 * Expect @p dump to equal the golden tests/golden/@p name byte for
 * byte. On a mismatch the actual bytes are written next to the build
 * and the failure names the file to copy over the golden.
 */
inline void
expectMatchesGolden(const std::string &dump, const std::string &name)
{
    const std::string golden = std::string(QPIP_GOLDEN_DIR) + "/" + name;
    std::ifstream in(golden, std::ios::binary);
    const std::string want{std::istreambuf_iterator<char>(in),
                           std::istreambuf_iterator<char>()};
    if (in && dump == want)
        return;
    const std::string actual =
        std::string(QPIP_GOLDEN_ACTUAL_DIR) + "/" + name;
    std::ofstream(actual, std::ios::binary) << dump;
    ADD_FAILURE() << "the dump differs from " << golden
                  << "; it was written to " << actual
                  << ", to be copied over the golden if the change is "
                     "meant";
}

} // namespace qpip::test
