// The main of every test binary: resolve the SYMCEX_* configuration once,
// as the drivers do, then run the suite.  Tests that need a different
// configuration build one (config::parse) or edit a copy of
// config::current() and install it for their scope.

#include <gtest/gtest.h>

#include "guard/config.hpp"

int main(int argc, char** argv) {
  symcex::config::install(symcex::config::from_env());
  ::testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}
