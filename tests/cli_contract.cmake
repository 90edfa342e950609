# The batch CLI's contract at its edges, checked end to end:
#
#   1. a value no run can take exits 2 with `cograd: <what>` on stderr,
#      the way a malformed flag exits 2 with `cli error:`: k outside
#      [1, c] on every command that builds an assignment or a game, an
#      unknown pattern, op, topology, consensus rule or player, --trials
#      below 1 on a command that summarizes a sample, and a checkpoint or
#      outcome flag without --supervise or with several trials (which
#      writes nothing);
#   2. two supervised runs print and write the bytes pinned below. The
#      broadcast runs three trials on one seeder; the aggregation's
#      outcome file pins its epochs, its accounting and its aggregate;
#   3. a game no trial wins says so instead of printing a median.
#
# Invoked by ctest as:
#   cmake -DCOGRAD=<cograd> -P cli_contract.cmake

if(NOT COGRAD)
  message(FATAL_ERROR "need -DCOGRAD")
endif()

set(own ${CMAKE_CURRENT_BINARY_DIR}/cli_contract)
file(REMOVE_RECURSE ${own})
file(MAKE_DIRECTORY ${own})

function(expect_rejected what)
  execute_process(
    COMMAND ${COGRAD} ${ARGN}
    WORKING_DIRECTORY ${own}
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
  if(NOT rc EQUAL 2)
    message(FATAL_ERROR "cograd ${ARGN}: exit ${rc}, expected 2 (${err})")
  endif()
  if(NOT err STREQUAL "cograd: ${what}\n")
    message(FATAL_ERROR "cograd ${ARGN}: stderr '${err}', expected "
                        "'cograd: ${what}'")
  endif()
endfunction()

set(bad_k "assignment: need 1 <= k <= c")
foreach(command broadcast aggregate consensus gossip record)
  expect_rejected(${bad_k} ${command} --n 8 --c 4 --k 0)
  expect_rejected(${bad_k} ${command} --n 8 --c 4 --k 5)
endforeach()
expect_rejected(${bad_k} aggregate --n 8 --c 4 --k 0 --supervise)
expect_rejected(${bad_k} broadcast --n 8 --c 4 --k 5 --supervise)
expect_rejected("hitting game: need 1 <= k <= c" game --k 0)
expect_rejected("unknown assignment pattern: nope" broadcast --pattern nope)
expect_rejected("unknown aggregation op: nope" aggregate --op nope)
expect_rejected("unknown topology: nope" multihop --topology nope --n 12)
expect_rejected("unknown consensus rule: nope" consensus --rule nope)
expect_rejected("unknown player: nope" game --player nope)

set(unsupervised "--checkpoint/--resume/--outcome-out require --supervise")
expect_rejected(${unsupervised}
                broadcast --n 12 --checkpoint snap.ckpt --resume MISSING)
expect_rejected(${unsupervised} broadcast --n 12 --checkpoint snap.ckpt)
expect_rejected(${unsupervised} aggregate --n 12 --outcome-out outcome.json)
expect_rejected("--checkpoint/--resume require --trials 1"
                broadcast --n 12 --supervise --trials 2
                --checkpoint snap.ckpt)
expect_rejected("--outcome-out requires --trials 1"
                aggregate --n 12 --supervise --trials 3
                --outcome-out outcome.json)
set(no_sample "--trials must be >= 1")
expect_rejected(${no_sample} broadcast --n 12 --trials 0)
expect_rejected(${no_sample} broadcast --n 12 --trials 0 --supervise)
expect_rejected(${no_sample} aggregate --n 12 --trials -1)
expect_rejected(${no_sample} game --trials 0)
foreach(left snap.ckpt outcome.json)
  if(EXISTS ${own}/${left})
    message(FATAL_ERROR "a rejected command wrote ${left}")
  endif()
endforeach()

execute_process(
  COMMAND ${COGRAD} broadcast --n 64 --c 8 --k 2 --pattern partitioned
          --seed 3 --trials 3 --supervise --deadline 20 --max-restarts 4
  WORKING_DIRECTORY ${own}
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out)
set(want "trial 0: completed after 40 slots, 1 restarts (2 epochs)
trial 1: completed after 18 slots, 0 restarts (1 epochs)
trial 2: completed after 41 slots, 1 restarts (2 epochs)
")
if(NOT rc EQUAL 0 OR NOT out STREQUAL want)
  message(FATAL_ERROR "supervised broadcast (exit ${rc}) printed:\n${out}"
                      "expected:\n${want}")
endif()

execute_process(
  COMMAND ${COGRAD} aggregate --n 24 --c 6 --k 2 --seed 9 --supervise
          --deadline 60 --max-restarts 3 --outcome-out outcome.json
  WORKING_DIRECTORY ${own}
  RESULT_VARIABLE rc
  OUTPUT_QUIET)
file(READ ${own}/outcome.json got)
set(want "{\"completed\":true,\"aborted\":false,\"restarts\":2,\"total_slots\":343,\"epochs\":[[60,0,0,1],[120,0,0,1],[163,1,0,0]],\"stats\":[163,1472,662,1148,382,0,1097,2040,5,0,0,0,0,0,0,0,0,0,0,0],\"aggregate\":12311510}\n")
if(NOT rc EQUAL 0 OR NOT got STREQUAL want)
  message(FATAL_ERROR "supervised aggregate (exit ${rc}) wrote:\n${got}"
                      "expected:\n${want}")
endif()

# A uniform player expects c^2/k = 9e6 rounds; within the 1e6-round cap
# this trial loses, and the line reports the sample, not a 0.0 median.
execute_process(
  COMMAND ${COGRAD} game --c 3000 --k 1 --player uniform --trials 1
  WORKING_DIRECTORY ${own}
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out)
set(want "(3000,1)-hitting game, uniform player: 0/1 trials won within 1000000 rounds (c^2/k = 9000000.0, Lemma 11 budget 4497000.5)\n")
if(NOT rc EQUAL 0 OR NOT out STREQUAL want)
  message(FATAL_ERROR "lost game (exit ${rc}) printed:\n${out}"
                      "expected:\n${want}")
endif()
