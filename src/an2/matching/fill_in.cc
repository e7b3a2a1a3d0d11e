#include "an2/matching/fill_in.h"

#include "an2/base/error.h"

namespace an2 {

FillInMatcher::FillInMatcher(std::unique_ptr<Matcher> primary,
                             std::unique_ptr<Matcher> secondary)
    : primary_(std::move(primary)), secondary_(std::move(secondary))
{
    AN2_REQUIRE(primary_ != nullptr && secondary_ != nullptr,
                "both schedulers are required");
}

std::string
FillInMatcher::name() const
{
    return primary_->name() + "+" + secondary_->name();
}

void
FillInMatcher::reset()
{
    primary_->reset();
    secondary_->reset();
}

Matching
FillInMatcher::match(const RequestMatrix& req)
{
    Matching m = primary_->match(req);
    AN2_ASSERT(m.isLegalFor(req), "primary returned an illegal matching");
    primary_pairs_ += m.size();

    // Hand the secondary scheduler only the requests between ports the
    // primary left idle.
    RequestMatrix residual(req.numInputs(), req.numOutputs());
    bool any = false;
    for (PortId i = 0; i < req.numInputs(); ++i) {
        if (m.isInputMatched(i))
            continue;
        for (PortId j = 0; j < req.numOutputs(); ++j) {
            if (m.isOutputSaturated(j))
                continue;
            if (req.has(i, j)) {
                residual.set(i, j, true);
                any = true;
            }
        }
    }
    if (!any)
        return m;

    Matching fill = secondary_->match(residual);
    AN2_ASSERT(fill.isLegalFor(residual),
               "fill-in returned an illegal matching");
    for (auto [i, j] : fill.pairs()) {
        m.add(i, j);
        ++fill_in_pairs_;
    }
    return m;
}

}  // namespace an2
