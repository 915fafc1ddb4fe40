/**
 * @file
 * Round-trip-time estimation and retransmission timeout computation in
 * the BSD/Jacobson tradition, with Karn's rule applied by the caller
 * (retransmitted segments are never timed; RFC 1323 timestamps allow a
 * sample from every ACK).
 *
 * This is the computation whose software multiplies dominate the
 * LANai 9's ACK-receive cost in Table 3 — the firmware cost model
 * charges extra cycles for it when the hwMultiply assist is off.
 */

#pragma once

#include "sim/types.hh"

namespace qpip::inet {

/**
 * srtt/rttvar estimator per Jacobson '88 / RFC 6298 with configurable
 * RTO clamps.
 */
class RttEstimator
{
  public:
    /**
     * @param min_rto lower clamp (Linux uses 200 ms; the SAN-tuned
     *        firmware runtime uses a much smaller value).
     */
    RttEstimator(sim::Tick min_rto, sim::Tick max_rto);

    /** Fold in a measured round-trip sample. */
    void sample(sim::Tick rtt);

    /** Current retransmission timeout (with backoff applied). */
    sim::Tick rto() const;

    /** Exponential backoff after a retransmission timeout. */
    void backoff();

    /** Reset backoff after an ACK of new data (Karn). */
    void resetBackoff() { backoffShift_ = 0; }

    bool hasSample() const { return hasSample_; }
    sim::Tick srtt() const { return srtt_; }
    sim::Tick rttvar() const { return rttvar_; }

  private:
    sim::Tick minRto_;
    sim::Tick maxRto_;
    sim::Tick srtt_ = 0;
    sim::Tick rttvar_ = 0;
    bool hasSample_ = false;
    unsigned backoffShift_ = 0;
};

} // namespace qpip::inet
