/** @file Tests for the frame renderer and the finite-view property. */

#include <gtest/gtest.h>

#include "core/simd/sha256.hh"
#include "core/simd/simd.hh"
#include "trust/frames.hh"

namespace {

using trust::core::Bytes;
using trust::hw::DisplaySpec;
using trust::hw::FrameHashEngine;
using trust::trust::expectedFrameHashes;
using trust::trust::renderFrame;
using trust::trust::standardViews;
using trust::trust::ViewTransform;

DisplaySpec
smallDisplay()
{
    DisplaySpec d;
    d.width = 64;
    d.height = 64;
    d.bytesPerPixel = 2;
    return d;
}

TEST(Frames, StandardViewsFiniteAndDistinct)
{
    const auto views = standardViews();
    EXPECT_EQ(views.size(), 12u);
    for (std::size_t i = 0; i < views.size(); ++i)
        for (std::size_t j = i + 1; j < views.size(); ++j)
            EXPECT_FALSE(views[i] == views[j]);
}

TEST(Frames, RenderDeterministic)
{
    const Bytes page(300, 0x5a);
    const ViewTransform view{150, 2};
    EXPECT_EQ(renderFrame(page, view, smallDisplay()),
              renderFrame(page, view, smallDisplay()));
}

TEST(Frames, RenderSizeMatchesDisplay)
{
    const Bytes page(100, 1);
    const auto frame = renderFrame(page, {100, 0}, smallDisplay());
    EXPECT_EQ(frame.size(),
              static_cast<std::size_t>(smallDisplay().frameBytes()));
}

TEST(Frames, DifferentViewsDifferentFrames)
{
    const Bytes page(300, 0x5a);
    const auto a = renderFrame(page, {100, 0}, smallDisplay());
    const auto b = renderFrame(page, {150, 0}, smallDisplay());
    const auto c = renderFrame(page, {100, 1}, smallDisplay());
    EXPECT_NE(a, b);
    EXPECT_NE(a, c);
}

TEST(Frames, DifferentContentDifferentFrames)
{
    Bytes page1(300, 1), page2(300, 1);
    page2[150] = 2;
    EXPECT_NE(renderFrame(page1, {100, 0}, smallDisplay()),
              renderFrame(page2, {100, 0}, smallDisplay()));
}

TEST(Frames, EmptyContentRendersBlank)
{
    const auto frame = renderFrame({}, {100, 0}, smallDisplay());
    for (std::uint8_t b : frame)
        EXPECT_EQ(b, 0);
}

TEST(Frames, ExpectedHashesCoverEveryView)
{
    const Bytes page(500, 0x33);
    FrameHashEngine engine;
    const auto hashes =
        expectedFrameHashes(page, smallDisplay(), engine);
    ASSERT_EQ(hashes.size(), standardViews().size());

    // Every standard-view rendering hashes into the set.
    for (const auto &view : standardViews()) {
        const auto h = engine.hashFrame(
            renderFrame(page, view, smallDisplay()));
        EXPECT_NE(std::find(hashes.begin(), hashes.end(), h),
                  hashes.end());
    }
}

TEST(Frames, TamperedFrameOutsideExpectedSet)
{
    const Bytes page(500, 0x33);
    FrameHashEngine engine;
    const auto hashes =
        expectedFrameHashes(page, smallDisplay(), engine);

    auto frame = renderFrame(page, {100, 0}, smallDisplay());
    frame[10] ^= 0x01; // malware overlay
    const auto tampered_hash = engine.hashFrame(frame);
    EXPECT_EQ(std::find(hashes.begin(), hashes.end(), tampered_hash),
              hashes.end());
}

TEST(Frames, TamperedContentOutsideExpectedSet)
{
    const Bytes page(500, 0x33);
    Bytes phishing = page;
    phishing[0] ^= 0xff;
    FrameHashEngine engine;
    const auto hashes =
        expectedFrameHashes(page, smallDisplay(), engine);
    const auto h = engine.hashFrame(
        renderFrame(phishing, {100, 0}, smallDisplay()));
    EXPECT_EQ(std::find(hashes.begin(), hashes.end(), h), hashes.end());
}

TEST(Frames, Sha256BackendsAgreeOnRenderedFrame)
{
    // A full-size frame (480x800 RGB565, 768 KB): the input the
    // frame-hash engine sees on every request.
    namespace simd = trust::core::simd;
    const bool prev = simd::scalarForced();
    const Bytes page(1024, 0x6e);
    const DisplaySpec display;
    const Bytes frame = renderFrame(page, {150, 2}, display);
    ASSERT_EQ(frame.size(), 768000u);
    FrameHashEngine engine;
    simd::setForceScalar(true);
    const Bytes reference = engine.hashFrame(frame);
    simd::setForceScalar(false);
    RecordProperty("sha256_backend", simd::sha256BackendName());
    EXPECT_EQ(engine.hashFrame(frame), reference);
    simd::setForceScalar(prev);
}

} // namespace
