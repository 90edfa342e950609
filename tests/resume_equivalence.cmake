# Supervised resume equivalence at the CLI, manifest for manifest:
#   1. an uninterrupted control run writes its outcome manifest;
#   2. a checkpointing run (--checkpoint --checkpoint-every 32) must write
#      the identical manifest while leaving a mid-run snapshot behind;
#   3. a run resumed from that snapshot (--resume) must write the
#      identical manifest again.
# Any divergence — stats, epochs, restarts, the aggregate — is a byte
# difference. Driven by the cograd.resume_equivalence_* ctest legs for
# both supervised scenario families (CogCast broadcast on the partitioned
# pattern, CogComp aggregation).
#
# Usage: cmake -DCOGRAD=<path> -DMODE=broadcast|aggregate
#              -P resume_equivalence.cmake

if(NOT COGRAD OR NOT MODE)
  message(FATAL_ERROR "need -DCOGRAD, -DMODE")
endif()

# Long enough runs that --checkpoint-every 32 cuts several mid-run
# snapshots (the partitioned broadcast runs ~130 slots, the aggregation
# ~160), so the resume leg genuinely continues from the middle.
if(MODE STREQUAL "broadcast")
  set(base_args broadcast --n 256 --c 32 --k 2 --pattern partitioned)
elseif(MODE STREQUAL "aggregate")
  set(base_args aggregate --n 24 --c 6 --k 2 --op sum)
else()
  message(FATAL_ERROR "unknown MODE '${MODE}'")
endif()
list(APPEND base_args --trials 1 --supervise --seed 7)

# Filenames carry the leg so parallel ctest workers never collide.
set(tag ${MODE})
set(control resume_ctrl_${tag}.json)
set(full resume_full_${tag}.json)
set(resumed resume_res_${tag}.json)
set(snapshot resume_ckpt_${tag}.bin)

function(run_leg outfile)
  execute_process(
    COMMAND ${COGRAD} ${base_args} ${ARGN} --outcome-out ${outfile}
    RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "cograd ${MODE} leg writing ${outfile} failed (${rc})")
  endif()
endfunction()

function(require_identical a b what)
  execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files ${a} ${b}
                  RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${what}: ${a} and ${b} differ — resume is not "
                        "bit-identical")
  endif()
endfunction()

run_leg(${control})
run_leg(${full} --checkpoint ${snapshot} --checkpoint-every 32)
require_identical(${control} ${full}
                  "checkpointing run diverged from the control")
if(NOT EXISTS ${snapshot})
  message(FATAL_ERROR "checkpointing run left no snapshot at ${snapshot}")
endif()
run_leg(${resumed} --resume ${snapshot})
require_identical(${control} ${resumed}
                  "resumed run diverged from the control")
