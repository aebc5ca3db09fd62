# Fails unless CMD (program;args...) exits with EXPECTED and, given
# RECORD, that single-run JSONL record's source_checksum is nonzero and
# equals its checksum. cmake -DCMD=... -DEXPECTED=N [-DRECORD=path] -P
execute_process(COMMAND ${CMD} RESULT_VARIABLE rc
                OUTPUT_QUIET ERROR_VARIABLE err)
if(NOT rc STREQUAL EXPECTED)
    message(FATAL_ERROR "${CMD} exited with '${rc}', expected ${EXPECTED}\n"
                        "${err}")
endif()
if(RECORD)
    file(READ ${RECORD} record)
    string(JSON source GET "${record}" source_checksum)
    string(JSON checksum GET "${record}" checksum)
    if(source EQUAL 0 OR NOT source EQUAL checksum)
        message(FATAL_ERROR "source_checksum ${source} vs checksum ${checksum}")
    endif()
endif()
