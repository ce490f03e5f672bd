// Tests for the Status / Result error model, the env-knob parser and the
// binary I/O helpers.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/binio.h"
#include "common/env.h"
#include "common/logging.h"
#include "common/result.h"
#include "common/status.h"

namespace vdrift {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
  EXPECT_TRUE(s.message().empty());
}

TEST(StatusTest, FactoryConstructorsCarryCodeAndMessage) {
  EXPECT_EQ(Status::InvalidArgument("x").code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(Status::NotFound("x").code(), StatusCode::kNotFound);
  EXPECT_EQ(Status::FailedPrecondition("x").code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(Status::OutOfRange("x").code(), StatusCode::kOutOfRange);
  EXPECT_EQ(Status::Unimplemented("x").code(), StatusCode::kUnimplemented);
  EXPECT_EQ(Status::Internal("x").code(), StatusCode::kInternal);
  EXPECT_EQ(Status::IoError("x").code(), StatusCode::kIoError);
  EXPECT_EQ(Status::DataLoss("x").code(), StatusCode::kDataLoss);
  EXPECT_EQ(Status::DeadlineExceeded("x").code(),
            StatusCode::kDeadlineExceeded);
  Status s = Status::InvalidArgument("bad k");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.message(), "bad k");
  EXPECT_EQ(s.ToString(), "Invalid argument: bad k");
}

TEST(StatusTest, EqualityComparesCodeAndMessage) {
  EXPECT_EQ(Status::OK(), Status());
  EXPECT_EQ(Status::NotFound("a"), Status::NotFound("a"));
  EXPECT_FALSE(Status::NotFound("a") == Status::NotFound("b"));
  EXPECT_FALSE(Status::NotFound("a") == Status::Internal("a"));
}

TEST(StatusCodeTest, AllCodesHaveNames) {
  for (int c = 0; c <= 9; ++c) {
    EXPECT_NE(StatusCodeToString(static_cast<StatusCode>(c)), "Unknown");
  }
}

TEST(StatusCodeTest, RecoveryCodesRenderDistinctly) {
  EXPECT_EQ(Status::DataLoss("torn file").ToString(), "Data loss: torn file");
  EXPECT_EQ(Status::DeadlineExceeded("slow").ToString(),
            "Deadline exceeded: slow");
}

TEST(ResultTest, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 42);
  EXPECT_TRUE(r.status().ok());
}

TEST(ResultTest, HoldsError) {
  Result<int> r(Status::NotFound("missing"));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(r.status().message(), "missing");
}

TEST(ResultTest, MoveOnlyValueCanBeMovedOut) {
  Result<std::vector<int>> r(std::vector<int>{1, 2, 3});
  ASSERT_TRUE(r.ok());
  std::vector<int> v = std::move(r).value();
  EXPECT_EQ(v.size(), 3u);
}

TEST(ResultTest, ValueOrDieReturnsValue) {
  Result<std::string> r(std::string("hello"));
  EXPECT_EQ(std::move(r).ValueOrDie(), "hello");
}

namespace macros {

Status FailIfNegative(int x) {
  if (x < 0) return Status::InvalidArgument("negative");
  return Status::OK();
}

Result<int> Doubled(int x) {
  VDRIFT_RETURN_NOT_OK(FailIfNegative(x));
  return 2 * x;
}

Result<int> DoubledTwice(int x) {
  VDRIFT_ASSIGN_OR_RETURN(int once, Doubled(x));
  VDRIFT_ASSIGN_OR_RETURN(int twice, Doubled(once));
  return twice;
}

}  // namespace macros

TEST(ResultMacrosTest, ReturnNotOkPropagates) {
  EXPECT_TRUE(macros::Doubled(3).ok());
  EXPECT_EQ(macros::Doubled(3).value(), 6);
  EXPECT_EQ(macros::Doubled(-1).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(ResultMacrosTest, AssignOrReturnChains) {
  ASSERT_TRUE(macros::DoubledTwice(5).ok());
  EXPECT_EQ(macros::DoubledTwice(5).value(), 20);
  EXPECT_FALSE(macros::DoubledTwice(-2).ok());
}

TEST(LoggingTest, NonFatalLevelsDoNotAbort) {
  VDRIFT_LOG_DEBUG << "debug line";
  VDRIFT_LOG_INFO << "info line";
  VDRIFT_LOG_WARNING << "warning line";
  SUCCEED();
}

TEST(LoggingTest, ParseLogLevelAcceptsNamesAndDigits) {
  LogLevel level = LogLevel::kInfo;
  EXPECT_TRUE(ParseLogLevel("debug", &level));
  EXPECT_EQ(level, LogLevel::kDebug);
  EXPECT_TRUE(ParseLogLevel("WARNING", &level));
  EXPECT_EQ(level, LogLevel::kWarning);
  EXPECT_TRUE(ParseLogLevel("warn", &level));
  EXPECT_EQ(level, LogLevel::kWarning);
  EXPECT_TRUE(ParseLogLevel("3", &level));
  EXPECT_EQ(level, LogLevel::kFatal);
  // Unknown names leave the level untouched.
  EXPECT_FALSE(ParseLogLevel("verbose", &level));
  EXPECT_EQ(level, LogLevel::kFatal);
}

TEST(LoggingTest, SetLogLevelRoundTrips) {
  SetLogLevel(LogLevel::kWarning);
  EXPECT_EQ(internal::GetLogLevel(), LogLevel::kWarning);
  SetLogLevel(LogLevel::kInfo);
  EXPECT_EQ(internal::GetLogLevel(), LogLevel::kInfo);
}

TEST(AtomicWriteFileTest, RoundTripsBinaryPayloadsAndOverwrites) {
  std::string path = ::testing::TempDir() + "/vdrift_atomic_write.bin";
  // Embedded NULs and high bytes must survive byte-for-byte.
  std::string payload("hello\0\xff\x01world", 13);
  ASSERT_TRUE(AtomicWriteFile(path, payload).ok());
  EXPECT_EQ(ReadFileToString(path).ValueOrDie(), payload);
  // A rewrite replaces the whole file — no stale tail from the longer
  // previous contents.
  ASSERT_TRUE(AtomicWriteFile(path, "x").ok());
  EXPECT_EQ(ReadFileToString(path).ValueOrDie(), "x");
  // An empty payload yields an empty file, not an error.
  ASSERT_TRUE(AtomicWriteFile(path, "").ok());
  EXPECT_EQ(ReadFileToString(path).ValueOrDie(), "");
  // The staging file is renamed away, never left behind.
  EXPECT_FALSE(ReadFileToString(path + ".tmp").ok());
  std::remove(path.c_str());
}

TEST(AtomicWriteFileTest, FailsCleanlyOnAnUnwritableDirectory) {
  std::string path =
      ::testing::TempDir() + "/vdrift_no_such_dir/never_written.bin";
  Status status = AtomicWriteFile(path, "data");
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kIoError);
  // Nothing was created: neither the target nor a staging file.
  EXPECT_FALSE(ReadFileToString(path).ok());
  EXPECT_FALSE(ReadFileToString(path + ".tmp").ok());
}

TEST(AtomicWriteFileTest, PathWithoutDirectoryUsesTheWorkingDirectory) {
  // The parent-directory fsync path must handle a bare filename ("." is
  // the parent) without erroring.
  std::string name = "vdrift_atomic_cwd_test.bin";
  ASSERT_TRUE(AtomicWriteFile(name, "cwd").ok());
  EXPECT_EQ(ReadFileToString(name).ValueOrDie(), "cwd");
  std::remove(name.c_str());
}

TEST(EnvelopeTest, LayoutIsMagicVersionLengthPayloadCrc) {
  // Both on-disk formats: the checkpoint's 8-byte and the fleet
  // manifest's 9-byte magic.
  const std::string payload("pay\0load\xff", 9);
  for (const auto& [magic, version] :
       {std::pair<std::string, uint32_t>{"VDCKPT01", 2u},
        std::pair<std::string, uint32_t>{"VDFLEET01", 1u}}) {
    SCOPED_TRACE(magic);
    const std::string bytes = SealEnvelope(magic, version, payload);
    const size_t m = magic.size();
    ASSERT_EQ(bytes.size(), m + 4 + 8 + payload.size() + 4);
    EXPECT_EQ(bytes.substr(0, m), magic);
    uint32_t stored_version = 0;
    uint64_t length = 0;
    uint32_t crc = 0;
    std::memcpy(&stored_version, bytes.data() + m, 4);
    std::memcpy(&length, bytes.data() + m + 4, 8);
    std::memcpy(&crc, bytes.data() + m + 12 + payload.size(), 4);
    EXPECT_EQ(stored_version, version);
    EXPECT_EQ(length, payload.size());
    EXPECT_EQ(bytes.substr(m + 12, payload.size()), payload);
    EXPECT_EQ(crc, Crc32(payload.data(), payload.size()));
    EXPECT_EQ(OpenEnvelope(magic, version, bytes, "test").ValueOrDie(),
              payload);
  }
}

TEST(EnvTest, StringIsEmptyWhenUnset) {
  unsetenv("VDRIFT_TEST_STRING");
  EXPECT_EQ(EnvString("VDRIFT_TEST_STRING"), "");
  setenv("VDRIFT_TEST_STRING", "", 1);
  EXPECT_EQ(EnvString("VDRIFT_TEST_STRING"), "");
  setenv("VDRIFT_TEST_STRING", "a b=c", 1);
  EXPECT_EQ(EnvString("VDRIFT_TEST_STRING"), "a b=c");
  unsetenv("VDRIFT_TEST_STRING");
}

TEST(EnvTest, FlagIsFalseOnlyWhenUnsetEmptyOrZero) {
  unsetenv("VDRIFT_TEST_FLAG");
  EXPECT_FALSE(EnvFlag("VDRIFT_TEST_FLAG"));
  setenv("VDRIFT_TEST_FLAG", "", 1);
  EXPECT_FALSE(EnvFlag("VDRIFT_TEST_FLAG"));
  setenv("VDRIFT_TEST_FLAG", "0", 1);
  EXPECT_FALSE(EnvFlag("VDRIFT_TEST_FLAG"));
  setenv("VDRIFT_TEST_FLAG", "1", 1);
  EXPECT_TRUE(EnvFlag("VDRIFT_TEST_FLAG"));
  setenv("VDRIFT_TEST_FLAG", "yes", 1);
  EXPECT_TRUE(EnvFlag("VDRIFT_TEST_FLAG"));
  unsetenv("VDRIFT_TEST_FLAG");
}

TEST(EnvTest, IntFallsBackWhenUnsetOrEmptyAndParsesValidValues) {
  unsetenv("VDRIFT_TEST_INT");
  EXPECT_EQ(EnvInt("VDRIFT_TEST_INT", 1, 10, 7), 7);
  setenv("VDRIFT_TEST_INT", "", 1);
  EXPECT_EQ(EnvInt("VDRIFT_TEST_INT", 1, 10, 7), 7);
  setenv("VDRIFT_TEST_INT", "10", 1);
  EXPECT_EQ(EnvInt("VDRIFT_TEST_INT", 1, 10, 7), 10);
  setenv("VDRIFT_TEST_INT", "-3", 1);
  EXPECT_EQ(EnvInt("VDRIFT_TEST_INT", -5, 10, 7), -3);
  unsetenv("VDRIFT_TEST_INT");
}

TEST(EnvDeathTest, IntWithTrailingJunkNamesTheKnob) {
  setenv("VDRIFT_TEST_INT", "5x", 1);
  EXPECT_DEATH(
      EnvInt("VDRIFT_TEST_INT", 1, 10, 7),
      "VDRIFT_TEST_INT must be an integer in \\[1, 10\\], got '5x'");
  setenv("VDRIFT_TEST_INT", "abc", 1);
  EXPECT_DEATH(EnvInt("VDRIFT_TEST_INT", 1, 10, 7), "VDRIFT_TEST_INT.*'abc'");
  unsetenv("VDRIFT_TEST_INT");
}

TEST(EnvDeathTest, IntOutOfRangeNamesTheKnob) {
  setenv("VDRIFT_TEST_INT", "11", 1);
  EXPECT_DEATH(
      EnvInt("VDRIFT_TEST_INT", 1, 10, 7),
      "VDRIFT_TEST_INT must be an integer in \\[1, 10\\], got '11'");
  setenv("VDRIFT_TEST_INT", "-5", 1);
  EXPECT_DEATH(EnvInt("VDRIFT_TEST_INT", 0, 10, 7), "VDRIFT_TEST_INT.*'-5'");
  setenv("VDRIFT_TEST_INT", "99999999999999999999", 1);
  EXPECT_DEATH(EnvInt("VDRIFT_TEST_INT", 0, INT64_MAX, 7), "VDRIFT_TEST_INT");
  unsetenv("VDRIFT_TEST_INT");
}

TEST(LoggingDeathTest, CheckFailureAborts) {
  EXPECT_DEATH({ VDRIFT_CHECK(1 == 2) << "boom"; }, "Check failed");
}

TEST(LoggingDeathTest, CheckOkAbortsOnError) {
  EXPECT_DEATH({ VDRIFT_CHECK_OK(Status::Internal("broken")); }, "broken");
}

}  // namespace
}  // namespace vdrift
