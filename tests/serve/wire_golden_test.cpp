// Golden bytes for the canonical scenario encodings.
//
// The verdict-cache fingerprint (legal::fingerprint_hex) and the wire
// request frame both pack the 23 Scenario flags into one u32 in a fixed
// bit order.  These digests and frames were recorded from the encoders
// as they stood before the flag order moved into one shared list
// (legal/scenario_flags.h); any change to the order, the packing or the
// framing moves a byte here.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "legal/batch.h"
#include "legal/scene_table.h"
#include "serve/wire.h"
#include "util/bytes.h"

namespace lexfor::serve::wire {
namespace {

using legal::Scenario;

// Every flag set; then every other flag, starting with the first.
[[nodiscard]] Scenario all_flags() {
  return Scenario{}
      .named("every flag")
      .under_color_of_law()
      .exposed_publicly()
      .shared()
      .delivered()
      .in_home()
      .sense_enhancing()
      .general_public_use()
      .publicly_accessible()
      .with_encryption()
      .opened()
      .revoked()
      .password_protected()
      .on_victim_system()
      .reaching_attacker()
      .exigent()
      .plain_view()
      .probationer()
      .pen_trap_emergency()
      .provider_protecting()
      .device_in_custody()
      .previously_acquired()
      .with_credentials()
      .arrested();
}

[[nodiscard]] Scenario alternate_flags() {
  return Scenario{}
      .named("alternate flags")
      .in_jurisdiction("CA")
      .under_color_of_law()
      .shared()
      .in_home()
      .general_public_use()
      .with_encryption()
      .revoked()
      .on_victim_system()
      .exigent()
      .probationer()
      .provider_protecting()
      .previously_acquired()
      .arrested();
}

struct Golden {
  const char* what;
  Scenario scenario;
  const char* fingerprint_hex;
  const char* frame_hex;
};

[[nodiscard]] std::vector<Golden> goldens() {
  const auto scene = [](std::size_t i) {
    return legal::library::scenes()[i].build();
  };
  return {
      {"library scene 0", scene(0),
       "81a0a853f2976e59ae72a2d5671bfe10d7552e25e8ef9eaceed70d8daefb01c8",
       "4c5853560101000049000000efcdab896745230121000000746865726d616c20696d6167696e67206f66206120686f6d6520284b796c6c6f2900000200000030000000020000005553"},
      {"library scene 11", scene(11),
       "ff8eb7fbfe28fce99fa2b686a623d24a00f3935867abb92c2f9ca68d49bb1009",
       "4c5853560101000058000000efcdab89674523013000000072652d6d696e696e672061206469736b20696d61676520616c7265616479206c617766756c6c7920616371756972656400000201000000001000020000005553"},
      {"library scene 23", scene(23),
       "aa2a9cc86650260d49ba784a4b9b2c4fdff4d19242a5700c381e6d0beb593e41",
       "4c585356010100005b000000efcdab8967452301330000007468652073616d652049535020746170206163726f737320616e20616c6c2d70617274792d636f6e73656e7420626f7264657200010000000600000000020000004341"},
      {"library scene 34", scene(34),
       "756b29504423270f1068e559d5da9633ba3729acd493a8b402aebae6333ddf9c",
       "4c5853560101000052000000efcdab89674523012a000000636f2d74656e616e7420636f6e73656e747320746f207468652073686172656420776f726b737061636500000201000200000000020000005553"},
      {"library scene 45", scene(45),
       "416cb00f9c8c22afbddfc2c1d342fc50b5bd351d00a7a508686e3e661149776a",
       "4c5853560101000050000000efcdab8967452301280000007265616368696e6720696e746f207468652061747461636b65722773206f776e206d616368696e6500000201000800200000020000005553"},
      {"every flag", all_flags(),
       "70cc52c74a588cb6a8365ef4b90ba44491cb6125c3b92f9f28b0558f07649fd2",
       "4c5853560101000032000000efcdab89674523010a000000657665727920666c6167000000000000ffff7f00020000005553"},
      {"alternate flags", alternate_flags(),
       "083ce067f4a21436317fc17239d13e41f8174569ff7c9e0cd8183b6218ca5f68",
       "4c5853560101000037000000efcdab89674523010f000000616c7465726e61746520666c61677300000000000055555500020000004341"},
  };
}

TEST(WireGoldenTest, FingerprintsAndRequestFramesMatchRecordedBytes) {
  for (const Golden& g : goldens()) {
    EXPECT_EQ(legal::fingerprint_hex(g.scenario), g.fingerprint_hex) << g.what;
    std::vector<std::uint8_t> frame;
    encode_request(g.scenario, /*request_id=*/0x0123456789abcdefULL, frame);
    EXPECT_EQ(to_hex(frame.data(), frame.size()), g.frame_hex) << g.what;
  }
}

}  // namespace
}  // namespace lexfor::serve::wire
